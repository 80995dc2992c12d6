package stats

import (
	"fmt"
	"sort"
)

// P2Quantile is the Jain-Chlamtac P² streaming quantile estimator: five
// markers track the running q-quantile in O(1) time and fixed memory, with
// no stored samples and no sorting. The simulation hot paths use it as a
// cheap screen (e.g. the capacity-search quality monitor watches a running
// 99th-percentile delay per flow); anything reported in an experiment table
// still comes from the exact Sample collector.
//
// The zero value is not usable; call Reset before the first Add.
type P2Quantile struct {
	q float64
	// h are the marker heights, pos the actual marker positions (1-based),
	// want the desired (floating) positions.
	h    [5]float64
	pos  [5]float64
	want [5]float64
	dn   [5]float64
	n    int
}

// Reset re-arms the estimator for the q-quantile, discarding all state.
func (p *P2Quantile) Reset(q float64) error {
	if q <= 0 || q >= 1 {
		return fmt.Errorf("stats: p2 quantile %g outside (0,1)", q)
	}
	p.q = q
	p.n = 0
	p.dn = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	p.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.pos = [5]float64{1, 2, 3, 4, 5}
	return nil
}

// Count returns the number of observations seen.
func (p *P2Quantile) Count() int { return p.n }

// Ready reports whether the estimator has seen enough observations (five)
// to produce an estimate.
func (p *P2Quantile) Ready() bool { return p.n >= 5 }

// Estimate returns the current quantile estimate (0 before Ready).
func (p *P2Quantile) Estimate() float64 {
	if p.n == 0 {
		return 0
	}
	if p.n < 5 {
		// Exact small-sample quantile over the observations seen so far
		// (still held unsorted in h).
		var tmp [5]float64
		copy(tmp[:], p.h[:p.n])
		sort.Float64s(tmp[:p.n])
		i := int(p.q * float64(p.n))
		if i >= p.n {
			i = p.n - 1
		}
		return tmp[i]
	}
	return p.h[2]
}

// Add incorporates one observation in O(1).
func (p *P2Quantile) Add(x float64) {
	if p.n < 5 {
		p.h[p.n] = x
		p.n++
		if p.n == 5 {
			sort.Float64s(p.h[:])
		}
		return
	}
	p.n++
	// Find the cell k with h[k] <= x < h[k+1], clamping the extremes.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := 0; i < 5; i++ {
		p.want[i] += p.dn[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := p.parabolic(i, sign)
			if p.h[i-1] < h && h < p.h[i+1] {
				p.h[i] = h
			} else {
				p.h[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

// parabolic is the piecewise-parabolic (P²) marker height update.
func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.h[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.h[i+1]-p.h[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.h[i]-p.h[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback height update when the parabola overshoots.
func (p *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.h[i] + d*(p.h[j]-p.h[i])/(p.pos[j]-p.pos[i])
}
