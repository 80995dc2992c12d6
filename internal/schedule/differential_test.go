package schedule

import (
	"errors"
	"math/rand"
	"testing"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// chainProblemN builds a unit-demand full-chain problem over an n-node
// chain, the standard fixture of the delay experiments.
func chainProblemN(t *testing.T, n, frameSlots int) (*Problem, tdma.FrameConfig) {
	t.Helper()
	topo, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	path, err := topo.ShortestPath(topology.NodeID(n-1), 0)
	if err != nil {
		t.Fatalf("path: %v", err)
	}
	demand := make(map[topology.LinkID]int)
	for _, l := range path {
		demand[l] = 1
	}
	cfg := tdma.FrameConfig{FrameDuration: 20_000_000, DataSlots: frameSlots}
	p := &Problem{Graph: g, Demand: demand, FrameSlots: frameSlots,
		Flows: []FlowRequirement{{Path: path}}}
	return p, cfg
}

// TestOrderDenseMatchesMap drives a dense-backed and a map-backed Order with
// the same random Set sequence and checks Before/Len/Pairs agree on every
// pair, ordered or not.
func TestOrderDenseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(14)
		dense := NewOrderDense(n)
		sparse := NewOrder()
		if dense.tri == nil {
			t.Fatalf("n=%d: dense order fell back to map", n)
		}
		for k := 0; k < 3*n; k++ {
			a := topology.LinkID(rng.Intn(n))
			b := topology.LinkID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			dense.Set(a, b)
			sparse.Set(a, b)
		}
		if dense.Len() != sparse.Len() {
			t.Fatalf("Len: dense %d != map %d", dense.Len(), sparse.Len())
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				db, dok := dense.Before(topology.LinkID(a), topology.LinkID(b))
				sb, sok := sparse.Before(topology.LinkID(a), topology.LinkID(b))
				if db != sb || dok != sok {
					t.Fatalf("Before(%d,%d): dense (%v,%v) != map (%v,%v)", a, b, db, dok, sb, sok)
				}
			}
		}
		dp, sp := dense.Pairs(), sparse.Pairs()
		if len(dp) != len(sp) {
			t.Fatalf("Pairs: dense %d != map %d", len(dp), len(sp))
		}
		for i := range dp {
			if dp[i] != sp[i] {
				t.Fatalf("Pairs[%d]: dense %v != map %v", i, dp[i], sp[i])
			}
		}
	}
}

// TestOrderDenseOutOfRangeFallsBack checks that link IDs outside the dense
// universe land in the map fallback and behave identically.
func TestOrderDenseOutOfRangeFallsBack(t *testing.T) {
	o := NewOrderDense(4)
	o.Set(2, 100) // 100 outside [0, 4)
	o.Set(50, 3)
	if got := o.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if before, ok := o.Before(2, 100); !ok || !before {
		t.Errorf("Before(2,100) = (%v,%v), want (true,true)", before, ok)
	}
	if before, ok := o.Before(100, 2); !ok || before {
		t.Errorf("Before(100,2) = (%v,%v), want (false,true)", before, ok)
	}
	if before, ok := o.Before(3, 50); !ok || before {
		t.Errorf("Before(3,50) = (%v,%v), want (false,true)", before, ok)
	}
	pairs := o.Pairs()
	want := [][2]topology.LinkID{{2, 100}, {50, 3}}
	if len(pairs) != len(want) {
		t.Fatalf("Pairs = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("Pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
}

// TestOrderToScheduleStableUnderCaching runs OrderToSchedule on a fresh
// problem and on a problem whose caches were warmed by every cached
// accessor, and demands byte-identical schedules.
func TestOrderToScheduleStableUnderCaching(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		fresh, cfg := chainProblemN(t, n, 16)
		warmed, _ := chainProblemN(t, n, 16)
		// Warm every cache on one copy.
		warmed.ActiveLinks()
		warmed.conflictingPairs()
		warmed.CliqueLowerBound()

		of := PathMajorOrder(fresh)
		ow := PathMajorOrder(warmed)
		sf, err := OrderToSchedule(fresh, of, cfg.DataSlots, cfg)
		if err != nil {
			t.Fatalf("n=%d fresh: %v", n, err)
		}
		sw, err := OrderToSchedule(warmed, ow, cfg.DataSlots, cfg)
		if err != nil {
			t.Fatalf("n=%d warmed: %v", n, err)
		}
		if sf.String() != sw.String() {
			t.Errorf("n=%d: schedules differ under caching:\nfresh:\n%s\nwarmed:\n%s",
				n, sf.String(), sw.String())
		}
		// MinWindowForOrder's reused constraint system must agree with
		// independent full solves at the same window.
		wf, msf, err := MinWindowForOrder(fresh, of, cfg)
		if err != nil {
			t.Fatalf("n=%d min window: %v", n, err)
		}
		direct, err := OrderToSchedule(warmed, ow, wf, cfg)
		if err != nil {
			t.Fatalf("n=%d direct at %d: %v", n, wf, err)
		}
		if msf.String() != direct.String() {
			t.Errorf("n=%d: MinWindowForOrder schedule differs from direct solve at window %d:\n%s\nvs\n%s",
				n, wf, msf.String(), direct.String())
		}
		if wf > 1 {
			if _, err := OrderToSchedule(fresh, of, wf-1, cfg); err == nil {
				t.Errorf("n=%d: window %d-1 unexpectedly feasible", n, wf)
			}
		}
	}
}

// TestProblemCacheInvalidatesOnDemandChange guards the fingerprint-based
// self-invalidation: mutating Demand between optimizations must refresh the
// cached views.
func TestProblemCacheInvalidatesOnDemandChange(t *testing.T) {
	p, _ := chainProblemN(t, 5, 16)
	before := len(p.ActiveLinks())
	lbBefore := p.CliqueLowerBound()
	for l := range p.Demand {
		p.Demand[l] = 3
	}
	if got := len(p.ActiveLinks()); got != before {
		t.Fatalf("active links changed count: %d != %d", got, before)
	}
	if lb := p.CliqueLowerBound(); lb <= lbBefore {
		t.Errorf("clique bound %d not refreshed after demand bump (was %d)", lb, lbBefore)
	}
}

// TestDifferentialMinSlotsVsLinear pins the galloping + binary minimum-window
// search against the paper's linear scan built from SolveWindow probes: same
// minimum window, same error class, and a valid schedule at the optimum. The
// searches may solve a different number of programs (that is the point), so
// only the probe-count upper bound is checked.
func TestDifferentialMinSlotsVsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	opts := milp.Options{MaxNodes: 50_000}
	feasible, infeasible := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		frameSlots := 4 + rng.Intn(13)
		p, cfg := chainProblemN(t, n, frameSlots)
		for l := range p.Demand {
			p.Demand[l] = 1 + rng.Intn(3)
		}
		if rng.Intn(3) == 0 {
			p.Flows[0].BoundSlots = 1 + rng.Intn(2*frameSlots)
		}
		if err := p.Validate(); err != nil {
			continue
		}

		win, sched, solved, err := MinSlots(p, cfg, opts)

		// Linear reference scan.
		refWin, refSolved := 0, 0
		var refErr error
		lb := p.CliqueLowerBound()
		if lb < 1 {
			lb = 1
		}
		for w := lb; w <= p.FrameSlots; w++ {
			refSolved++
			if _, serr := SolveWindow(p, w, cfg, opts); serr == nil {
				refWin = w
				break
			} else if !errors.Is(serr, ErrInfeasible) {
				refErr = serr
				break
			}
		}
		if refWin == 0 && refErr == nil {
			refErr = ErrInfeasible
		}

		if (err == nil) != (refErr == nil) {
			t.Fatalf("trial %d (n=%d frame=%d): incremental err %v, linear err %v",
				trial, n, frameSlots, err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrInfeasible) || !errors.Is(refErr, ErrInfeasible) {
				t.Fatalf("trial %d: error class mismatch: %v vs %v", trial, err, refErr)
			}
			infeasible++
			continue
		}
		feasible++
		if win != refWin {
			t.Fatalf("trial %d (n=%d frame=%d): incremental window %d, linear window %d",
				trial, n, frameSlots, win, refWin)
		}
		if solved > refSolved {
			t.Fatalf("trial %d: incremental search solved %d programs, linear only %d",
				trial, solved, refSolved)
		}
		if err := p.checkSchedule(sched); err != nil {
			t.Fatalf("trial %d: schedule at window %d invalid: %v", trial, win, err)
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("weak coverage: %d feasible, %d infeasible", feasible, infeasible)
	}
}
