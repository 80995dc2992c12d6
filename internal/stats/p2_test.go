package stats

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestP2QuantileValidation(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		if err := new(P2Quantile).Reset(q); err == nil {
			t.Errorf("q=%g accepted", q)
		}
	}
	p := new(P2Quantile)
	if err := p.Reset(0.5); err != nil {
		t.Fatal(err)
	}
	if p.Ready() || p.Estimate() != 0 {
		t.Errorf("fresh estimator ready=%v est=%g", p.Ready(), p.Estimate())
	}
}

func TestP2QuantileSmallSamples(t *testing.T) {
	p := new(P2Quantile)
	if err := p.Reset(0.99); err != nil {
		t.Fatal(err)
	}
	p.Add(3)
	p.Add(1)
	p.Add(2)
	if p.Ready() {
		t.Error("ready before five observations")
	}
	if got := p.Estimate(); got != 3 {
		t.Errorf("small-sample 0.99 estimate = %g, want 3 (max)", got)
	}
	if p.n != 3 {
		t.Errorf("count = %d", p.n)
	}
}

// TestP2QuantileTracksExact checks the estimator stays within a few percent
// of the exact quantile on uniform and heavy-tailed streams.
func TestP2QuantileTracksExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		q    float64
		gen  func() float64
		tol  float64
	}{
		{"uniform-p50", 0.5, rng.Float64, 0.05},
		{"uniform-p95", 0.95, rng.Float64, 0.05},
		{"exp-p99", 0.99, rng.ExpFloat64, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := new(P2Quantile)
			if err := p.Reset(tc.q); err != nil {
				t.Fatal(err)
			}
			xs := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				x := tc.gen()
				p.Add(x)
				xs = append(xs, x)
			}
			sort.Float64s(xs)
			exact := xs[int(tc.q*float64(len(xs)))]
			got := p.Estimate()
			if got < exact*(1-tc.tol) || got > exact*(1+tc.tol) {
				t.Errorf("estimate = %g, exact = %g (tol %g)", got, exact, tc.tol)
			}
		})
	}
}

func TestP2QuantileReset(t *testing.T) {
	p := new(P2Quantile)
	if err := p.Reset(0.9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Add(float64(i))
	}
	if err := p.Reset(0.5); err != nil {
		t.Fatal(err)
	}
	if p.n != 0 || p.Ready() {
		t.Errorf("reset left state: count=%d ready=%v", p.n, p.Ready())
	}
	if err := p.Reset(2); err == nil {
		t.Error("Reset(2) accepted")
	}
}

// TestSampleIncrementalSortMatchesFull drives interleaved Add/query streams
// and checks every order statistic against a from-scratch re-sort, so the
// merge fast path can never drift from the plain sort.
func TestSampleIncrementalSortMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Sample
	var ref []float64
	for step := 0; step < 2000; step++ {
		x := rng.NormFloat64()
		s.Add(x)
		ref = append(ref, x)
		if step%7 == 0 {
			q := rng.Float64()
			got, err := s.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			sorted := append([]float64(nil), ref...)
			sort.Float64s(sorted)
			var want float64
			if len(sorted) == 1 {
				want = sorted[0]
			} else {
				pos := q * float64(len(sorted)-1)
				lo := int(pos)
				hi := lo
				if float64(lo) < pos {
					hi = lo + 1
				}
				frac := pos - float64(lo)
				want = sorted[lo]*(1-frac) + sorted[hi]*frac
			}
			if got != want {
				t.Fatalf("step %d: quantile(%g) = %g, want %g", step, q, got, want)
			}
		}
	}
	// The sorted view must be ascending and the full multiset.
	sv := s.SortedView()
	if len(sv) != len(ref) {
		t.Fatalf("sorted view length %d, want %d", len(sv), len(ref))
	}
	for i := 1; i < len(sv); i++ {
		if sv[i] < sv[i-1] {
			t.Fatalf("sorted view not ascending at %d", i)
		}
	}
}

func TestSampleReset(t *testing.T) {
	var s Sample
	s.AddDuration(3 * time.Millisecond)
	s.AddDuration(1 * time.Millisecond)
	if _, err := s.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("len after reset = %d", s.Len())
	}
	if _, err := s.Max(); err != ErrEmpty {
		t.Errorf("Max after reset: %v", err)
	}
	s.Add(42)
	if v, err := s.Max(); err != nil || v != 42 {
		t.Errorf("Max after reuse = %g, %v", v, err)
	}
}

// BenchmarkSampleQuantileInterleaved is the satellite regression benchmark:
// one Add between consecutive Quantile queries. The lazy merge keeps each
// query O(n) instead of a fresh O(n log n) sort per call; a re-sort-per-call
// implementation is quadratic-with-log in this loop and visibly blows up at
// this size.
func BenchmarkSampleQuantileInterleaved(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Sample
		for j := 0; j < 4096; j++ {
			s.Add(rng.Float64())
			if j%8 == 7 {
				if _, err := s.Quantile(0.95); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSampleQuantileBatch is the table path: many Adds, then the
// assemble-style query burst (mean, p95, max) that must cost one sort.
func BenchmarkSampleQuantileBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s Sample
		for _, x := range xs {
			s.Add(x)
		}
		if _, err := s.Mean(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Quantile(0.95); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Max(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkP2QuantileAdd(b *testing.B) {
	p := new(P2Quantile)
	if err := p.Reset(0.99); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(xs[i&1023])
	}
	_ = p.Estimate()
}
