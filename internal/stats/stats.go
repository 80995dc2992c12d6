// Package stats provides the small statistics toolkit used by the
// simulations and benchmarks: streaming moments, sample collectors with
// quantiles and confidence intervals, and fixed-width histograms.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrEmpty reports a statistic requested of an empty collector.
var ErrEmpty = errors.New("stats: empty")

// Welford accumulates streaming mean and variance (Welford's algorithm).
// The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Sample collects observations for quantile and CI queries.
// The zero value is ready to use.
//
// Order statistics are maintained lazily: Add appends in O(1) and marks the
// tail pending; the first order query sorts once. A query after a short
// burst of Adds merges the sorted prefix with the sorted pending tail in
// O(n + p log p) instead of re-sorting everything, so interleaved
// Add/Quantile streams (the capacity monitor's pattern) stay linear per
// query rather than paying a full sort each time.
type Sample struct {
	xs []float64
	// sortedLen is the length of the ascending prefix of xs; xs[sortedLen:]
	// is the unsorted pending tail appended since the last order query.
	sortedLen int
	// scratch is the merge buffer; it ping-pongs with xs so steady-state
	// queries allocate nothing.
	scratch []float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
}

// Reset empties the collector, retaining its capacity for reuse.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sortedLen = 0
}

// AddDuration appends a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Mean returns the sample mean.
func (s *Sample) Mean() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs)), nil
}

// Stddev returns the unbiased sample standard deviation.
func (s *Sample) Stddev() (float64, error) {
	if len(s.xs) < 2 {
		return 0, ErrEmpty
	}
	m, err := s.Mean()
	if err != nil {
		return 0, err
	}
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.xs)-1)), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation of
// the order statistics.
func (s *Sample) Quantile(q float64) (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g outside [0,1]", q)
	}
	s.sort()
	if len(s.xs) == 1 {
		return s.xs[0], nil
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo], nil
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac, nil
}

// Min returns the smallest observation.
func (s *Sample) Min() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmpty
	}
	s.sort()
	return s.xs[0], nil
}

// Max returns the largest observation.
func (s *Sample) Max() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmpty
	}
	s.sort()
	return s.xs[len(s.xs)-1], nil
}

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using Student-t critical values (normal approximation beyond n=30).
func (s *Sample) CI95() (float64, error) {
	if len(s.xs) < 2 {
		return 0, ErrEmpty
	}
	sd, err := s.Stddev()
	if err != nil {
		return 0, err
	}
	return tCrit95(len(s.xs)-1) * sd / math.Sqrt(float64(len(s.xs))), nil
}

func (s *Sample) sort() {
	pending := len(s.xs) - s.sortedLen
	if pending == 0 {
		return
	}
	// A large pending tail (or an unsorted collector) is cheapest to sort
	// whole; a short tail is sorted alone and merged with the prefix.
	if s.sortedLen == 0 || pending > s.sortedLen/2 {
		sort.Float64s(s.xs)
		s.sortedLen = len(s.xs)
		return
	}
	sort.Float64s(s.xs[s.sortedLen:])
	if cap(s.scratch) < len(s.xs) {
		s.scratch = make([]float64, 0, cap(s.xs))
	}
	out := s.scratch[:0]
	a, b := s.xs[:s.sortedLen], s.xs[s.sortedLen:]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	s.scratch = s.xs[:0]
	s.xs = out
	s.sortedLen = len(out)
}

// Sorted returns the observations in ascending order as a freshly allocated
// copy, safe to retain across later Adds or Resets. Hot paths that consume
// the order immediately should use SortedView, which does not allocate.
func (s *Sample) Sorted() []float64 {
	s.sort()
	return append([]float64(nil), s.xs...)
}

// SortedView returns the observations in ascending order as a view of the
// collector's backing array. The view is only valid until the next Add or
// Reset: a later observation may reorder or reallocate the backing array
// under the caller. Callers that keep the slice must use Sorted instead.
func (s *Sample) SortedView() []float64 {
	s.sort()
	return s.xs
}

// Values returns the raw observations as a read-only view in the
// collector's current order (insertion order until the first order query,
// which sorts — see Durations). Valid until the next Add or Reset.
func (s *Sample) Values() []float64 { return s.xs }

// Durations returns the observations as durations (interpreting values as
// seconds), in insertion-then-sort order — the collector may have been
// sorted by a quantile query.
func (s *Sample) Durations() []time.Duration {
	out := make([]time.Duration, len(s.xs))
	for i, x := range s.xs {
		out[i] = time.Duration(x * float64(time.Second))
	}
	return out
}

// tCrit95 returns the two-sided 95% Student-t critical value for df degrees
// of freedom.
func tCrit95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
		2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}
