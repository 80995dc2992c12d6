package schedule

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// incrementalFixture builds a chain conflict graph and a frame, returning the
// graph and the full link universe as the support set.
func incrementalFixture(t *testing.T, nodes, frameSlots int) (*conflict.Graph, []topology.LinkID, tdma.FrameConfig) {
	t.Helper()
	topo, err := topology.Chain(nodes, 100)
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	support := make([]topology.LinkID, g.NumVertices())
	for i := range support {
		support[i] = topology.LinkID(i)
	}
	cfg := tdma.FrameConfig{FrameDuration: 20_000_000, DataSlots: frameSlots}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("frame: %v", err)
	}
	return g, support, cfg
}

// TestDifferentialIncrementalVsMonolithic churns one persistent Incremental
// model through a random demand sequence — links activating, growing,
// shrinking, and going fully dormant — and pins every answer to the
// monolithic MinSlots on a freshly built model: same feasibility verdict,
// same minimum window, and a valid witness schedule covering the demands.
func TestDifferentialIncrementalVsMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := milp.Options{MaxNodes: 50_000}
	g, support, cfg := incrementalFixture(t, 8, 12)
	inc, err := NewIncremental(supportProblem(g, support, cfg, nil), cfg)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}

	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	demand := make(map[topology.LinkID]int)
	hint := 0
	feasible, infeasible := 0, 0
	for round := 0; round < rounds; round++ {
		// Mutate a few links: 0 puts a link to sleep, exercising the
		// vacuous-row path on its pairs.
		for k := 0; k < 1+rng.Intn(3); k++ {
			l := support[rng.Intn(len(support))]
			d := rng.Intn(5) // 0..4, with 0 = dormant
			if d == 0 {
				delete(demand, l)
			} else {
				demand[l] = d
			}
		}
		if len(demand) == 0 {
			demand[support[0]] = 1
		}

		p := &Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots}
		if err := p.Validate(); err != nil {
			t.Fatalf("round %d: bad problem: %v", round, err)
		}
		win, sched, _, _, err := inc.MinSlots(p, hint, 0, 0, opts)

		refWin, refSched, _, refErr := MinSlots(p, cfg, opts)

		if (err == nil) != (refErr == nil) {
			t.Fatalf("round %d: incremental err %v, monolithic err %v (demand %v)",
				round, err, refErr, demand)
		}
		if err != nil {
			if !errors.Is(err, ErrInfeasible) || !errors.Is(refErr, ErrInfeasible) {
				t.Fatalf("round %d: error class mismatch: %v vs %v", round, err, refErr)
			}
			infeasible++
			hint = 0
			continue
		}
		feasible++
		if win != refWin {
			t.Fatalf("round %d: incremental window %d, monolithic window %d (demand %v)",
				round, win, refWin, demand)
		}
		for _, s := range []*tdma.Schedule{sched, refSched} {
			if err := p.checkSchedule(s); err != nil {
				t.Fatalf("round %d: bad witness: %v", round, err)
			}
		}
		hint = win
	}
	if feasible == 0 || (!testing.Short() && infeasible == 0) {
		t.Fatalf("degenerate churn: %d feasible, %d infeasible rounds", feasible, infeasible)
	}
}

// TestIncrementalHintAtBoundSingleProbe checks the steady-state admission
// fast case: when the hint equals the effective lower bound and is feasible,
// the search stops after exactly one integer program.
func TestIncrementalHintAtBoundSingleProbe(t *testing.T) {
	g, support, cfg := incrementalFixture(t, 6, 16)
	inc, err := NewIncremental(supportProblem(g, support, cfg, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := milp.Options{MaxNodes: 50_000}
	demand := map[topology.LinkID]int{support[0]: 2}
	p := &Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots}
	win, sched, solved, _, err := inc.MinSlots(p, 0, 0, 0, opts)
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if sched == nil || sched.LinkSlots(support[0]) != 2 {
		t.Fatalf("bad witness for single-link demand: %v", sched)
	}
	// Re-solve the same problem hinting the known-exact window as both hint
	// and lower bound: must be one probe.
	win2, _, solved2, _, err := inc.MinSlots(p, win, win, 0, opts)
	if err != nil {
		t.Fatalf("hinted solve: %v", err)
	}
	if win2 != win {
		t.Fatalf("hinted window %d, want %d", win2, win)
	}
	if solved2 != 1 {
		t.Fatalf("hinted re-solve used %d programs, want 1 (first used %d)", solved2, solved)
	}
}

// TestIncrementalSupports covers the support boundary: a demand outside the
// support fails MinSlots with ErrUnsupportedLink until Cover has rebuilt the
// model over the union; a demand already covered rebuilds nothing.
func TestIncrementalSupports(t *testing.T) {
	g, support, cfg := incrementalFixture(t, 6, 16)
	half := support[:len(support)/2]
	inc, err := NewIncremental(supportProblem(g, half, cfg, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := milp.Options{}
	outside := support[len(support)-1]
	p := &Problem{Graph: g, Demand: map[topology.LinkID]int{half[0]: 1, outside: 1}, FrameSlots: cfg.DataSlots}
	if _, _, _, _, err := inc.MinSlots(p, 0, 0, 0, opts); !errors.Is(err, ErrUnsupportedLink) {
		t.Fatalf("MinSlots on out-of-support demand: %v, want ErrUnsupportedLink", err)
	}
	if rebuilt, err := inc.Cover(map[topology.LinkID]int{half[0]: 1, outside: 0}); err != nil || rebuilt {
		t.Fatalf("Cover of a zero demand outside the support: rebuilt %v, err %v", rebuilt, err)
	}
	if rebuilt, err := inc.Cover(p.Demand); err != nil || !rebuilt {
		t.Fatalf("Cover of out-of-support link %d: rebuilt %v, err %v", outside, rebuilt, err)
	}
	_, sched, _, _, err := inc.MinSlots(p, 0, 0, 0, opts)
	if err != nil {
		t.Fatalf("MinSlots after Cover: %v", err)
	}
	if err := p.checkSchedule(sched); err != nil {
		t.Fatalf("witness after Cover: %v", err)
	}
	if rebuilt, err := inc.Cover(p.Demand); err != nil || rebuilt {
		t.Fatalf("second Cover: rebuilt %v, err %v", rebuilt, err)
	}
	// A link outside the graph cannot be covered, and the failed growth
	// leaves the model as it was.
	beyond := topology.LinkID(g.NumVertices())
	if _, err := inc.Cover(map[topology.LinkID]int{beyond: 1}); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("Cover of link %d outside the graph: %v, want ErrBadDemand", beyond, err)
	}
	if _, _, _, _, err := inc.MinSlots(p, 0, 0, 0, opts); err != nil {
		t.Fatalf("MinSlots after a failed Cover: %v", err)
	}
}

// TestCoverMatchesFreshUnion grows one model by Cover along a seeded demand
// stream that keeps waking new links, and pins every answer — window,
// schedule, programs solved, pivots — to a model built fresh over the union
// support at that point: the rebuild inside Cover loses nothing, and a model
// that has been through earlier applies answers like an untouched one.
func TestCoverMatchesFreshUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opts := milp.Options{MaxNodes: 50_000}
	g, all, cfg := incrementalFixture(t, 8, 12)
	union := []topology.LinkID{all[0]}
	inc, err := NewIncremental(supportProblem(g, union, cfg, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	demand := map[topology.LinkID]int{all[0]: 1}
	hint, rebuilds := 0, 0
	for round := 0; round < 30; round++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			l := all[rng.Intn(len(all))]
			if d := rng.Intn(4); d == 0 && len(demand) > 1 {
				delete(demand, l)
			} else if d > 0 {
				demand[l] = d
			}
		}
		for l := range demand {
			if !slices.Contains(union, l) {
				union = append(union, l)
			}
		}
		rebuilt, err := inc.Cover(demand)
		if err != nil {
			t.Fatalf("round %d: Cover: %v", round, err)
		}
		if rebuilt {
			rebuilds++
		}
		fresh, err := NewIncremental(supportProblem(g, union, cfg, nil), cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := &Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots}
		win, sched, solved, pivots, err := inc.MinSlots(p, hint, 0, 0, opts)
		fWin, fSched, fSolved, fPivots, fErr := fresh.MinSlots(p, hint, 0, 0, opts)
		if (err == nil) != (fErr == nil) || win != fWin || solved != fSolved || pivots != fPivots {
			t.Fatalf("round %d (demand %v): grown (%d, %d solved, %d pivots, %v), fresh (%d, %d solved, %d pivots, %v)",
				round, demand, win, solved, pivots, err, fWin, fSolved, fPivots, fErr)
		}
		hint = 0
		if err == nil {
			if !slices.Equal(sched.Assignments, fSched.Assignments) {
				t.Fatalf("round %d: grown schedule %v, fresh %v", round, sched.Assignments, fSched.Assignments)
			}
			hint = win
		}
	}
	if rebuilds < 3 || len(union) < len(all)/2 {
		t.Fatalf("degenerate stream: %d rebuilds, union of %d links", rebuilds, len(union))
	}
}

// bruteMinWindow is the oracle for small delay-bounded problems: the smallest
// window with a conflict-free placement of every demand whose flows meet
// their bounds under PathDelay, by exhaustive search over start slots. It
// shares nothing with the integer program. 0 means no window fits the frame.
func bruteMinWindow(t *testing.T, p *Problem, cfg tdma.FrameConfig) int {
	t.Helper()
	links := p.ActiveLinks()
	blocks := make([]tdma.Assignment, len(links))
	var place func(i, win int) bool
	place = func(i, win int) bool {
		if i == len(links) {
			s := &tdma.Schedule{Config: cfg, Assignments: slices.Clone(blocks)}
			if p.checkSchedule(s) != nil {
				return false
			}
			for _, f := range p.Flows {
				d, err := PathDelay(s, f.Path)
				if err != nil {
					t.Fatal(err)
				}
				if f.BoundSlots > 0 && d > time.Duration(f.BoundSlots)*cfg.SlotDuration() {
					return false
				}
			}
			return true
		}
		for st := 0; st+p.Demand[links[i]] <= win; st++ {
			blocks[i] = tdma.Assignment{Link: links[i], Start: st, Length: p.Demand[links[i]]}
			clash := false
			for j := 0; j < i && !clash; j++ {
				clash = p.Graph.Conflicts(links[i], links[j]) &&
					st < blocks[j].End() && blocks[j].Start < blocks[i].End()
			}
			if !clash && place(i+1, win) {
				return true
			}
		}
		return false
	}
	for win := 1; win <= p.FrameSlots; win++ {
		if place(0, win) {
			return win
		}
	}
	return 0
}

// TestApplyRetargetsFlowRows builds one model with delay-bounded flows and
// retargets it across demand vectors: for each, the persistent model must
// return what a fresh MinSlots returns, and both the exhaustive-search
// minimum — the gap, bound and single-hop right-hand sides all follow the
// demands.
func TestApplyRetargetsFlowRows(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 5, cfg)
	path := p.Flows[0].Path
	p.Flows = []FlowRequirement{
		{Path: path, BoundSlots: 7},
		{Path: path[1:3]},
		{Path: path[3:], BoundSlots: 2},
	}
	inc, err := newModel(p, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := milp.Options{}
	feasible, infeasible := 0, 0
	for i, d := range [][]int{{1, 1, 1, 1}, {2, 1, 2, 1}, {1, 2, 1, 2}, {2, 2, 2, 1}, {3, 2, 1, 1}, {1, 1, 1, 3}, {2, 2, 2, 2}} {
		q := &Problem{Graph: p.Graph, Demand: make(map[topology.LinkID]int), FrameSlots: p.FrameSlots, Flows: p.Flows}
		for k, l := range path {
			q.Demand[l] = d[k]
		}
		win, sched, solved, _, err := inc.MinSlots(q, 0, 0, 0, opts)
		fWin, fSched, fSolved, fErr := MinSlots(q, cfg, opts)
		if (err == nil) != (fErr == nil) || win != fWin || solved != fSolved {
			t.Fatalf("vector %d %v: persistent (%d, %d solved, %v), fresh (%d, %d solved, %v)",
				i, d, win, solved, err, fWin, fSolved, fErr)
		}
		if want := bruteMinWindow(t, q, cfg); win != want {
			t.Fatalf("vector %d %v: window %d (%v), exhaustive search says %d", i, d, win, err, want)
		}
		if err != nil {
			if !errors.Is(err, ErrInfeasible) || !errors.Is(fErr, ErrInfeasible) {
				t.Fatalf("vector %d %v: error class: %v vs %v", i, d, err, fErr)
			}
			infeasible++
			continue
		}
		feasible++
		if !slices.Equal(sched.Assignments, fSched.Assignments) {
			t.Fatalf("vector %d %v: persistent schedule %v, fresh %v", i, d, sched.Assignments, fSched.Assignments)
		}
	}
	if feasible < 3 || infeasible < 2 {
		t.Fatalf("degenerate vectors: %d feasible, %d infeasible", feasible, infeasible)
	}
}
