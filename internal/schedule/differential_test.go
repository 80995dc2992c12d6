package schedule

import (
	"errors"
	"fmt"
	"math"
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

// before reports whether a transmits before b under o: the smaller
// (rank, link ID) first, nil ranking every link equal.
func before(o Order, a, b topology.LinkID) bool {
	if o != nil && o[a] != o[b] {
		return o[a] < o[b]
	}
	return a < b
}

// bellmanFord is the paper's step that the order pass replaces: the order's
// difference constraints (see orderPass) in float64, solved by Bellman-Ford
// from a virtual source, with the starts shifted by the zero reference. It
// returns nil on a negative cycle.
func bellmanFord(p *Problem, o Order, win int) []int {
	active := p.ActiveLinks()
	n := len(active) // variable n is the zero reference
	type edge struct {
		from, to int // x[to] - x[from] <= w
		w        float64
	}
	var edges []edge
	idx := make(map[topology.LinkID]int, n)
	for i, l := range active {
		idx[l] = i
		edges = append(edges, edge{i, n, 0}, edge{n, i, float64(win - p.Demand[l])})
	}
	for _, pair := range p.conflictingPairs() {
		a, b := pair[0], pair[1]
		if !before(o, a, b) {
			a, b = b, a
		}
		edges = append(edges, edge{idx[b], idx[a], -float64(p.Demand[a])})
	}
	dist := make([]float64, n+1)
	for iter := 0; iter <= n; iter++ {
		relaxed := false
		for _, e := range edges {
			if d := dist[e.from] + e.w; d < dist[e.to]-1e-12 {
				dist[e.to], relaxed = d, true
			}
		}
		if !relaxed {
			starts := make([]int, n)
			for i := range starts {
				starts[i] = int(math.Round(dist[i] - dist[n]))
			}
			return starts
		}
	}
	return nil
}

// bellmanFordMinWindow is the window search the order pass replaces: the
// smallest window between the clique bound (at least 1) and the frame at
// which Bellman-Ford finds a solution, or 0 when the frame cannot host the
// order.
func bellmanFordMinWindow(p *Problem, o Order, frame int) int {
	lo, hi := max(p.CliqueLowerBound(), 1), frame
	if bellmanFord(p, o, hi) == nil {
		return 0
	}
	for lo < hi {
		if mid := (lo + hi) / 2; bellmanFord(p, o, mid) != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// diskProblem builds a random-disk mesh of n nodes with a few shortest-path
// flows of 1-3 slots per hop (summed on shared links).
func diskProblem(t *testing.T, rng *rand.Rand, n, frame int) (*Problem, *topology.Network) {
	t.Helper()
	net, err := topology.RandomDisk(n, 90*math.Sqrt(float64(n)), 200, rng.Int63())
	if err != nil {
		t.Fatalf("disk: %v", err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p := &Problem{Graph: g, Demand: make(map[topology.LinkID]int), FrameSlots: frame}
	for k := 2 + rng.Intn(6); k > 0; k-- {
		src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
		path, err := net.ShortestPath(src, dst)
		if err != nil {
			t.Fatalf("path: %v", err)
		}
		d := 1 + rng.Intn(3)
		for _, l := range path {
			p.Demand[l] += d
		}
		if len(path) > 0 {
			p.Flows = append(p.Flows, FlowRequirement{Path: path})
		}
	}
	return p, net
}

// TestOrderPassMatchesBellmanFord pins the order pass against the
// Bellman-Ford reference on random disks of 40-120 nodes: for path-major,
// naive, random, tree and tied orders (random ranks in {0, 1, 2}, so the
// link-ID tie rule decides most pairs), the minimum window, every start at
// the minimum and at +1, +7 and +40 slots, and the error one slot short; and
// the empty-demand problem.
func TestOrderPassMatchesBellmanFord(t *testing.T) {
	const frame = 512
	cfg := tdma.FrameConfig{FrameDuration: 20_000_000, DataSlots: frame}
	rng := rand.New(rand.NewSource(51))
	check := func(name string, p *Problem, o Order) {
		t.Helper()
		ref := bellmanFordMinWindow(p, o, frame)
		win, s, err := MinWindowForOrder(p, o, cfg)
		switch {
		case ref == 0:
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: reference infeasible, pass gave window %d err %v", name, win, err)
			}
			return
		case err != nil || win != ref:
			t.Fatalf("%s: window %d err %v, reference %d", name, win, err, ref)
		}
		for _, w := range []int{win, win + 1, win + 7, win + 40} {
			if w > frame {
				continue
			}
			if w != win {
				if s, err = OrderToSchedule(p, o, w, cfg); err != nil {
					t.Fatalf("%s: window %d: %v", name, w, err)
				}
			}
			want := bellmanFord(p, o, w)
			if len(s.Assignments) != len(want) {
				t.Fatalf("%s: window %d: %d blocks, reference %d", name, w, len(s.Assignments), len(want))
			}
			for i, a := range s.Assignments {
				if a.Start != want[i] {
					t.Fatalf("%s: window %d: link %d starts at %d, reference %d", name, w, a.Link, a.Start, want[i])
				}
			}
		}
		if win > 1 {
			if _, err := OrderToSchedule(p, o, win-1, cfg); !errors.Is(err, ErrInfeasible) || bellmanFord(p, o, win-1) != nil {
				t.Fatalf("%s: window %d: got %v, want ErrInfeasible like the reference", name, win-1, err)
			}
		}
	}
	for trial := 0; trial < 16; trial++ {
		n := 40 + rng.Intn(81)
		p, net := diskProblem(t, rng, n, frame)
		rt, err := net.BuildRoutingTree()
		if err != nil {
			t.Fatalf("routing tree: %v", err)
		}
		tree, err := TreeOrder(p, rt, net)
		if err != nil {
			t.Fatalf("tree order: %v", err)
		}
		tied := make(Order, p.Graph.NumVertices())
		for l := range tied {
			tied[l] = int32(rng.Intn(3))
		}
		for _, c := range []struct {
			name string
			o    Order
		}{{"path-major", PathMajorOrder(p)}, {"naive", NaiveOrder(p)}, {"random", RandomOrder(p, rng)}, {"tree", tree}, {"tied", tied}} {
			check(fmt.Sprintf("trial %d (n=%d) %s", trial, n, c.name), p, c.o)
		}
	}
	empty, _ := chainProblemN(t, 4, frame)
	empty.Demand, empty.Flows = map[topology.LinkID]int{}, nil
	check("empty demand", empty, nil)
	if win, s, _ := MinWindowForOrder(empty, nil, cfg); win != 1 || len(s.Assignments) != 0 {
		t.Fatalf("empty demand: window %d with %d blocks, want 1 and none", win, len(s.Assignments))
	}
}
