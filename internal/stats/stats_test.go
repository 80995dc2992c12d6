package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

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
	if _, err := s.Max(); !errors.Is(err, ErrEmpty) {
		t.Error("Max on empty did not return ErrEmpty")
	}
}

func TestSampleMinMaxAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(20 * time.Millisecond)
	s.AddDuration(10 * time.Millisecond)
	mn, err := s.Quantile(0)
	if err != nil || mn != 0.01 {
		t.Errorf("Quantile(0) = %g, %v", mn, err)
	}
	mx, err := s.Max()
	if err != nil || mx != 0.02 {
		t.Errorf("Max = %g, %v", mx, err)
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
