package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordMatchesDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", w.Mean())
	}
	// Unbiased variance of this classic set is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %g, want %g", w.Variance(), 32.0/7.0)
	}
	if math.Abs(w.Stddev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("Stddev = %g", w.Stddev())
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty Welford not zero")
	}
	w.Add(3)
	if w.Variance() != 0 {
		t.Error("single-sample variance not zero")
	}
}

func TestSampleMeanQuantile(t *testing.T) {
	var s Sample
	for _, x := range []float64{5, 1, 3, 2, 4} {
		s.Add(x)
	}
	m, err := s.Mean()
	if err != nil || m != 3 {
		t.Errorf("Mean = %g, %v", m, err)
	}
	q, err := s.Quantile(0.5)
	if err != nil || q != 3 {
		t.Errorf("median = %g, %v", q, err)
	}
	q, err = s.Quantile(0)
	if err != nil || q != 1 {
		t.Errorf("q0 = %g, %v", q, err)
	}
	q, err = s.Quantile(1)
	if err != nil || q != 5 {
		t.Errorf("q1 = %g, %v", q, err)
	}
	// Interpolated quantile: 0.25 over [1..5] -> 2.
	q, err = s.Quantile(0.25)
	if err != nil || q != 2 {
		t.Errorf("q25 = %g, %v", q, err)
	}
	if _, err := s.Quantile(1.5); err == nil {
		t.Error("quantile > 1 accepted")
	}
}

func TestSampleEmptyErrors(t *testing.T) {
	var s Sample
	if _, err := s.Mean(); !errors.Is(err, ErrEmpty) {
		t.Error("Mean on empty did not return ErrEmpty")
	}
	if _, err := s.Quantile(0.5); !errors.Is(err, ErrEmpty) {
		t.Error("Quantile on empty did not return ErrEmpty")
	}
	if _, err := s.Min(); !errors.Is(err, ErrEmpty) {
		t.Error("Min on empty did not return ErrEmpty")
	}
	if _, err := s.CI95(); !errors.Is(err, ErrEmpty) {
		t.Error("CI95 on empty did not return ErrEmpty")
	}
}

func TestSampleMinMaxAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(20 * time.Millisecond)
	s.AddDuration(10 * time.Millisecond)
	mn, err := s.Min()
	if err != nil || mn != 0.01 {
		t.Errorf("Min = %g, %v", mn, err)
	}
	mx, err := s.Max()
	if err != nil || mx != 0.02 {
		t.Errorf("Max = %g, %v", mx, err)
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=5, sd=1: half-width = 2.776 / sqrt(5).
	var s Sample
	for _, x := range []float64{-1, -0.5, 0, 0.5, 1} {
		s.Add(x)
	}
	sd, err := s.Stddev()
	if err != nil {
		t.Fatal(err)
	}
	ci, err := s.CI95()
	if err != nil {
		t.Fatal(err)
	}
	want := 2.776 * sd / math.Sqrt(5)
	if math.Abs(ci-want) > 1e-9 {
		t.Errorf("CI95 = %g, want %g", ci, want)
	}
}

func TestTCritTable(t *testing.T) {
	if tCrit95(1) != 12.706 {
		t.Errorf("t(1) = %g", tCrit95(1))
	}
	if tCrit95(100) != 1.96 {
		t.Errorf("t(100) = %g", tCrit95(100))
	}
	if !math.IsNaN(tCrit95(0)) {
		t.Error("t(0) not NaN")
	}
}

// Property: Welford mean/variance agree with the two-pass computation.
func TestPropertyWelfordAgreesWithTwoPass(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var s Sample
		for _, r := range raw {
			x := float64(r) / 64
			w.Add(x)
			s.Add(x)
		}
		m, err := s.Mean()
		if err != nil {
			return false
		}
		sd, err := s.Stddev()
		if err != nil {
			return false
		}
		return math.Abs(w.Mean()-m) < 1e-9 && math.Abs(w.Stddev()-sd) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, r := range raw {
			s.Add(float64(r))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v, err := s.Quantile(q)
			if err != nil {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSortedIsACopy pins the ownership contract: the slice Sorted returns
// must survive later observations unchanged (a live view would be reordered
// or reallocated under the caller by the next Add — the bug this guards
// against), while SortedView documents itself as invalidated by Add.
func TestSortedIsACopy(t *testing.T) {
	var s Sample
	for _, x := range []float64{3, 1, 2} {
		s.Add(x)
	}
	got := s.Sorted()
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
	// Adds that reorder and grow the backing array must not disturb the copy.
	for _, x := range []float64{0, -1, 0.5, 7, -2, 4} {
		s.Add(x)
	}
	if _, err := s.Quantile(0.5); err != nil { // forces an in-place re-sort
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("retained Sorted slice changed after Adds: %v, want %v", got, want)
		}
	}
	// SortedView reflects the collector's current (re-sorted) state.
	view := s.SortedView()
	if len(view) != 9 || view[0] != -2 || view[8] != 7 {
		t.Errorf("SortedView = %v, want 9 ascending values from -2 to 7", view)
	}
}
