package voip

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func msSlice(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestPlanPlayoutZeroTargetCoversMax(t *testing.T) {
	po, err := PlanPlayout(msSlice(10, 20, 30, 40), 0)
	if err != nil {
		t.Fatal(err)
	}
	if po.Buffer != 40*time.Millisecond {
		t.Errorf("buffer = %v, want 40ms", po.Buffer)
	}
	if po.LateLoss != 0 {
		t.Errorf("late loss = %g, want 0", po.LateLoss)
	}
}

func TestPlanPlayoutQuantile(t *testing.T) {
	// 10 samples, target 10%: buffer = 9th order statistic, 1 late.
	delays := msSlice(1, 2, 3, 4, 5, 6, 7, 8, 9, 100)
	po, err := PlanPlayout(delays, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if po.Buffer != 9*time.Millisecond {
		t.Errorf("buffer = %v, want 9ms", po.Buffer)
	}
	if po.LateLoss != 0.1 {
		t.Errorf("late loss = %g, want 0.1", po.LateLoss)
	}
}

func TestPlanPlayoutValidation(t *testing.T) {
	if _, err := PlanPlayout(nil, 0); err == nil {
		t.Error("empty delays accepted")
	}
	if _, err := PlanPlayout(msSlice(1), -0.1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := PlanPlayout(msSlice(1), 1); err == nil {
		t.Error("target 1 accepted")
	}
}

func TestEvaluateWithPlayout(t *testing.T) {
	delays := msSlice(20, 21, 22, 23, 24, 25, 26, 27, 28, 120)
	q, po, err := EvaluateWithPlayout(G711(), delays, 0.01, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if po.Buffer >= 120*time.Millisecond {
		t.Errorf("buffer %v absorbed the outlier despite 10%% target", po.Buffer)
	}
	if q.R <= 0 || q.R > 93.2 {
		t.Errorf("R = %g", q.R)
	}
	// Tighter target -> deeper buffer -> more delay impairment, less loss.
	q0, po0, err := EvaluateWithPlayout(G711(), delays, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if po0.Buffer < po.Buffer {
		t.Errorf("zero-target buffer %v below 10%%-target buffer %v", po0.Buffer, po.Buffer)
	}
	_ = q0
}

// Property: PlanPlayout's buffer is monotone non-increasing in the target,
// and the achieved late loss never exceeds the target.
func TestPropertyPlayoutMonotone(t *testing.T) {
	prop := func(raw []uint16, tgt uint8) bool {
		if len(raw) == 0 {
			return true
		}
		delays := make([]time.Duration, len(raw))
		for i, r := range raw {
			delays[i] = time.Duration(r) * time.Microsecond
		}
		target := float64(tgt%50) / 100
		po, err := PlanPlayout(delays, target)
		if err != nil {
			return false
		}
		if po.LateLoss > target+1e-9 {
			return false
		}
		tighter, err := PlanPlayout(delays, target/2)
		if err != nil {
			return false
		}
		return tighter.Buffer >= po.Buffer
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPlanPlayoutSortedMatchesUnsorted pins the no-copy sorted fast path to
// the reference implementation on random delay sets.
func TestPlanPlayoutSortedMatchesUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(200_000)) * time.Microsecond
		}
		target := []float64{0, 0.01, 0.05}[trial%3]
		want, err := PlanPlayout(delays, target)
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]time.Duration(nil), delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		got, err := PlanPlayoutSorted(sorted, target)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: sorted %+v != unsorted %+v", trial, got, want)
		}
		q1, p1, err := EvaluateWithPlayout(G711(), delays, 0.02, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		q2, p2, err := EvaluateWithPlayoutSorted(G711(), sorted, 0.02, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if q1 != q2 || p1 != p2 {
			t.Fatalf("trial %d: evaluate sorted (%+v,%+v) != unsorted (%+v,%+v)", trial, q2, p2, q1, p1)
		}
	}
}

func TestPlanPlayoutSortedValidation(t *testing.T) {
	if _, err := PlanPlayoutSorted(nil, 0.01); err == nil {
		t.Error("empty delays accepted")
	}
	if _, err := PlanPlayoutSorted([]time.Duration{time.Millisecond}, 1); err == nil {
		t.Error("target 1 accepted")
	}
}
