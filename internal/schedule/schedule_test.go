package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// testFrame returns a control-free frame so slot arithmetic maps exactly to
// time: 16 slots of 1 ms.
func testFrame() tdma.FrameConfig {
	return tdma.FrameConfig{FrameDuration: 16 * time.Millisecond, DataSlots: 16}
}

// chainProblem builds an n-node chain with unit demand on every forward link
// and a single flow over the whole chain.
func chainProblem(t *testing.T, n int, cfg tdma.FrameConfig) (*topology.Network, *Problem) {
	t.Helper()
	net, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	demand := make(map[topology.LinkID]int)
	var path topology.Path
	for i := 0; i < n-1; i++ {
		l, err := net.FindLink(topology.NodeID(i), topology.NodeID(i+1))
		if err != nil {
			t.Fatal(err)
		}
		demand[l] = 1
		path = append(path, l)
	}
	p := &Problem{
		Graph:      g,
		Demand:     demand,
		FrameSlots: cfg.DataSlots,
		Flows:      []FlowRequirement{{Path: path}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return net, p
}

func TestProblemValidate(t *testing.T) {
	net, err := topology.Chain(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	l01, _ := net.FindLink(0, 1)

	tests := []struct {
		name string
		p    *Problem
		ok   bool
	}{
		{"ok", &Problem{Graph: g, Demand: map[topology.LinkID]int{l01: 2}, FrameSlots: 8}, true},
		{"nil graph", &Problem{FrameSlots: 8}, false},
		{"zero frame", &Problem{Graph: g}, false},
		{"negative demand", &Problem{Graph: g, Demand: map[topology.LinkID]int{l01: -1}, FrameSlots: 8}, false},
		{"demand too big", &Problem{Graph: g, Demand: map[topology.LinkID]int{l01: 9}, FrameSlots: 8}, false},
		{"flow over inactive link", &Problem{
			Graph: g, Demand: map[topology.LinkID]int{}, FrameSlots: 8,
			Flows: []FlowRequirement{{Path: topology.Path{l01}}},
		}, false},
		{"negative bound", &Problem{
			Graph: g, Demand: map[topology.LinkID]int{l01: 1}, FrameSlots: 8,
			Flows: []FlowRequirement{{Path: topology.Path{l01}, BoundSlots: -1}},
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%t", err, tt.ok)
			}
		})
	}
}

func TestCliqueLowerBoundChain(t *testing.T) {
	_, p := chainProblem(t, 4, testFrame())
	// All 3 forward links mutually conflict under two-hop: LB = 3.
	if lb := p.CliqueLowerBound(); lb != 3 {
		t.Errorf("CliqueLowerBound = %d, want 3", lb)
	}
}

func TestSlotDemand(t *testing.T) {
	net, err := topology.Chain(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	fs := topology.NewFlowSet(net)
	// 64 kb/s over 2 hops.
	if _, err := fs.Add(0, 2, 64e3, 0); err != nil {
		t.Fatal(err)
	}
	cfg := testFrame() // 16 ms frame
	// 64e3 * 0.016 = 1024 bits = 128 bytes per frame; at 200 bytes/slot -> 1.
	demand, err := SlotDemand(fs, cfg, func(topology.LinkID) int { return 200 })
	if err != nil {
		t.Fatal(err)
	}
	if len(demand) != 2 {
		t.Fatalf("demand on %d links, want 2", len(demand))
	}
	for l, d := range demand {
		if d != 1 {
			t.Errorf("demand[%d] = %d, want 1", l, d)
		}
	}
	// At 100 bytes/slot -> 128 bytes needs 2 slots.
	demand, err = SlotDemand(fs, cfg, func(topology.LinkID) int { return 100 })
	if err != nil {
		t.Fatal(err)
	}
	for l, d := range demand {
		if d != 2 {
			t.Errorf("demand[%d] = %d, want 2", l, d)
		}
	}
	// Zero bytes per slot is an error.
	if _, err := SlotDemand(fs, cfg, func(topology.LinkID) int { return 0 }); !errors.Is(err, ErrBadDemand) {
		t.Errorf("got %v, want ErrBadDemand", err)
	}
}

func TestDelayBoundSlots(t *testing.T) {
	cfg := testFrame() // 1 ms slots, 16-slot frame
	f := topology.Flow{DelayBound: 20 * time.Millisecond}
	// 20 slots - 16 frame slots = 4 budget.
	got, err := DelayBoundSlots(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("budget = %d, want 4", got)
	}
	// Unconstrained flow.
	got, err = DelayBoundSlots(topology.Flow{}, cfg)
	if err != nil || got != 0 {
		t.Errorf("unconstrained = %d, %v", got, err)
	}
	// Bound tighter than one frame: error.
	if _, err := DelayBoundSlots(topology.Flow{DelayBound: 10 * time.Millisecond}, cfg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("got %v, want ErrInfeasible", err)
	}
}

func TestOrderSetBefore(t *testing.T) {
	o := NewOrder()
	o.Set(5, 2)
	if b, ok := o.Before(5, 2); !ok || !b {
		t.Errorf("Before(5,2) = %t, %t; want true, true", b, ok)
	}
	if b, ok := o.Before(2, 5); !ok || b {
		t.Errorf("Before(2,5) = %t, %t; want false, true", b, ok)
	}
	if _, ok := o.Before(1, 9); ok {
		t.Error("unordered pair reported ordered")
	}
	if _, ok := o.Before(3, 3); ok {
		t.Error("self pair reported ordered")
	}
	o.Set(7, 7) // no-op
	if o.Len() != 1 {
		t.Errorf("Len = %d, want 1", o.Len())
	}
}

func TestNaiveOrderComplete(t *testing.T) {
	_, p := chainProblem(t, 5, testFrame())
	o := NaiveOrder(p)
	if !o.Complete(p) {
		t.Error("naive order incomplete")
	}
	// Lower link IDs come first.
	pairs := p.conflictingPairs()
	for _, pair := range pairs {
		b, ok := o.Before(pair[0], pair[1])
		if !ok || !b {
			t.Errorf("naive order: %d should precede %d", pair[0], pair[1])
		}
	}
}

func TestOrderToScheduleChain(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	o := PathMajorOrder(p)
	s, err := OrderToSchedule(p, o, 3, cfg)
	if err != nil {
		t.Fatalf("OrderToSchedule: %v", err)
	}
	if err := s.Validate(p.Graph); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	for l, d := range p.Demand {
		if got := s.LinkSlots(l); got != d {
			t.Errorf("link %d slots = %d, want %d", l, got, d)
		}
	}
	// Path-major order packs the chain into consecutive slots: delay = 3 slots.
	d, err := PathDelay(s, p.Flows[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * cfg.SlotDuration(); d != want {
		t.Errorf("PathDelay = %v, want %v", d, want)
	}
}

func TestOrderToScheduleInfeasibleWindow(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	o := PathMajorOrder(p)
	if _, err := OrderToSchedule(p, o, 2, cfg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("window 2 on 3 mutually conflicting unit demands: got %v, want ErrInfeasible", err)
	}
}

func TestOrderToScheduleRejectsIncompleteOrder(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	if _, err := OrderToSchedule(p, NewOrder(), 8, cfg); !errors.Is(err, ErrBadDemand) {
		t.Errorf("got %v, want ErrBadDemand", err)
	}
}

func TestMinWindowForOrder(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	win, s, err := MinWindowForOrder(p, PathMajorOrder(p), cfg)
	if err != nil {
		t.Fatalf("MinWindowForOrder: %v", err)
	}
	if win != 3 {
		t.Errorf("window = %d, want 3", win)
	}
	if err := s.Validate(p.Graph); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestReversedOrderWrapsAndCostsFrames(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	// Rank hops in reverse path order: every hop's outbound link transmits
	// before its inbound link, forcing a frame wrap per hop.
	rank := map[topology.LinkID]int{}
	for pos, l := range p.Flows[0].Path {
		rank[l] = -pos
	}
	o := PriorityOrder(p, rank)
	s, err := OrderToSchedule(p, o, cfg.DataSlots, cfg)
	if err != nil {
		t.Fatalf("OrderToSchedule: %v", err)
	}
	dRev, err := PathDelay(s, p.Flows[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	sFwd, err := OrderToSchedule(p, PathMajorOrder(p), cfg.DataSlots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dFwd, err := PathDelay(sFwd, p.Flows[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if dRev <= dFwd {
		t.Errorf("reversed order delay %v not worse than path-major %v", dRev, dFwd)
	}
	if dRev < cfg.FrameDuration {
		t.Errorf("reversed order delay %v, want more than a frame (wraps)", dRev)
	}
}

func TestSolveWindowMatchesBellmanFeasibility(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	// Window 3 is feasible.
	s, err := SolveWindow(p, 3, cfg, milp.Options{})
	if err != nil {
		t.Fatalf("SolveWindow(3): %v", err)
	}
	if err := s.Validate(p.Graph); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	// Window 2 is not.
	if _, err := SolveWindow(p, 2, cfg, milp.Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("SolveWindow(2) = %v, want ErrInfeasible", err)
	}
}

func TestMinSlotsChain(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	win, s, solved, err := MinSlots(p, cfg, milp.Options{})
	if err != nil {
		t.Fatalf("MinSlots: %v", err)
	}
	if win != 3 {
		t.Errorf("min slots = %d, want 3", win)
	}
	if solved < 1 {
		t.Errorf("solved = %d ILPs, want >= 1", solved)
	}
	if err := s.Validate(p.Graph); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestMinSlotsRespectsDelayBound(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	// Budget exactly sum of demands: hops must chain without gaps or wraps.
	p.Flows[0].BoundSlots = 3
	win, s, _, err := MinSlots(p, cfg, milp.Options{})
	if err != nil {
		t.Fatalf("MinSlots with bound: %v", err)
	}
	if win != 3 {
		t.Errorf("min slots = %d, want 3", win)
	}
	d, err := PathDelay(s, p.Flows[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * cfg.SlotDuration(); d != want {
		t.Errorf("PathDelay = %v, want %v", d, want)
	}
	// Impossible budget (less than transmission time).
	p.Flows[0].BoundSlots = 2
	if _, _, _, err := MinSlots(p, cfg, milp.Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("bound 2: got %v, want ErrInfeasible", err)
	}
}

func TestMinMaxDelayOrderChain(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	res, err := MinMaxDelayOrder(p, cfg.DataSlots, cfg, milp.Options{})
	if err != nil {
		t.Fatalf("MinMaxDelayOrder: %v", err)
	}
	if res.MaxDelaySlots != 3 {
		t.Errorf("MaxDelaySlots = %d, want 3 (no wraps)", res.MaxDelaySlots)
	}
	if !res.Optimal {
		t.Error("optimality not proved")
	}
	if err := res.Schedule.Validate(p.Graph); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	d, err := PathDelay(res.Schedule, p.Flows[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * cfg.SlotDuration(); d != want {
		t.Errorf("PathDelay = %v, want %v", d, want)
	}
	// The extracted order must be complete and regenerate a valid schedule
	// via Bellman-Ford; the regenerated schedule cannot beat the optimum.
	if !res.Order.Complete(p) {
		t.Error("extracted order incomplete")
	}
	s2, err := OrderToSchedule(p, res.Order, cfg.DataSlots, cfg)
	if err != nil {
		t.Fatalf("OrderToSchedule(extracted order): %v", err)
	}
	d2, err := MaxPathDelay(p, s2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 < res.MaxDelay {
		t.Errorf("reconstruction delay %v beats proven optimum %v", d2, res.MaxDelay)
	}
}

func TestMinMaxDelayOrderNeedsFlows(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	p.Flows = nil
	if _, err := MinMaxDelayOrder(p, cfg.DataSlots, cfg, milp.Options{}); !errors.Is(err, ErrBadDemand) {
		t.Errorf("got %v, want ErrBadDemand", err)
	}
}

// TestCheckScheduleReportsUnderServedLink: the solvers' defensive check
// accepts a greedy layout and rejects it, as ErrInfeasible naming the link,
// once one link's demand exceeds what the layout gives it.
func TestCheckScheduleReportsUnderServedLink(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 5, cfg)
	s, err := Greedy(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.checkSchedule(s); err != nil {
		t.Fatalf("greedy layout: %v", err)
	}
	l := p.ActiveLinks()[2]
	p.Demand[l]++
	err = p.checkSchedule(s)
	if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), fmt.Sprintf("link %d got 1 slots, demand 2", l)) {
		t.Errorf("link %d under-served: checkSchedule = %v, want ErrInfeasible naming it", l, err)
	}
}

func TestGreedyChain(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 6, cfg)
	s, err := Greedy(p, cfg)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if err := s.Validate(p.Graph); err != nil {
		t.Errorf("greedy schedule invalid: %v", err)
	}
	for l, d := range p.Demand {
		if got := s.LinkSlots(l); got != d {
			t.Errorf("link %d slots = %d, want %d", l, got, d)
		}
	}
	if gl := GreedyLength(s); gl < p.CliqueLowerBound() {
		t.Errorf("greedy length %d below clique bound %d", gl, p.CliqueLowerBound())
	}
}

func TestGreedyInfeasibleWhenFrameTooSmall(t *testing.T) {
	cfg := tdma.FrameConfig{FrameDuration: 2 * time.Millisecond, DataSlots: 2}
	net, err := topology.Chain(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	demand := make(map[topology.LinkID]int)
	for i := 0; i < 3; i++ {
		l, _ := net.FindLink(topology.NodeID(i), topology.NodeID(i+1))
		demand[l] = 1
	}
	p := &Problem{Graph: g, Demand: demand, FrameSlots: 2}
	if _, err := Greedy(p, cfg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("got %v, want ErrInfeasible", err)
	}
}

func TestTreeOrderUplinkChain(t *testing.T) {
	cfg := testFrame()
	net, err := topology.Chain(4, 100) // gateway at node 0
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := net.BuildRoutingTree()
	if err != nil {
		t.Fatal(err)
	}
	// Uplink flow from node 3 to the gateway.
	demand := make(map[topology.LinkID]int)
	path := rt.Up[3]
	for _, l := range path {
		demand[l] = 1
	}
	p := &Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots,
		Flows: []FlowRequirement{{Path: path}}}
	o, err := TreeOrder(p, rt, net)
	if err != nil {
		t.Fatalf("TreeOrder: %v", err)
	}
	s, err := OrderToSchedule(p, o, cfg.DataSlots, cfg)
	if err != nil {
		t.Fatalf("OrderToSchedule: %v", err)
	}
	d, err := PathDelay(s, path)
	if err != nil {
		t.Fatal(err)
	}
	// Deeper links first: packet reaches the gateway within one frame.
	if want := 3 * cfg.SlotDuration(); d != want {
		t.Errorf("uplink delay = %v, want %v", d, want)
	}
}

func TestRandomOrderDeterministic(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 5, cfg)
	o1 := RandomOrder(p, rand.New(rand.NewSource(42)))
	o2 := RandomOrder(p, rand.New(rand.NewSource(42)))
	p1, p2 := o1.Pairs(), o2.Pairs()
	if len(p1) != len(p2) {
		t.Fatalf("pair counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed produced different orders at %d", i)
		}
	}
}

func TestRequirements(t *testing.T) {
	cfg := testFrame()
	net, err := topology.Chain(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	fs := topology.NewFlowSet(net)
	if _, err := fs.Add(3, 0, 64e3, 25*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	reqs, err := Requirements(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 {
		t.Fatalf("reqs = %d, want 1", len(reqs))
	}
	// 25 slots - 16 = 9 budget.
	if reqs[0].BoundSlots != 9 {
		t.Errorf("BoundSlots = %d, want 9", reqs[0].BoundSlots)
	}
}

// Property: any order derived from a total priority ranking is feasible at a
// window equal to the total demand, and the resulting schedule is
// conflict-free and demand-meeting.
func TestPropertyPriorityOrdersSchedulable(t *testing.T) {
	cfg := tdma.FrameConfig{FrameDuration: 64 * time.Millisecond, DataSlots: 64}
	prop := func(seed int64) bool {
		net, err := topology.RandomDisk(7, 700, 350, seed%400)
		if err != nil {
			return true
		}
		g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		demand := make(map[topology.LinkID]int)
		total := 0
		for _, l := range net.Links() {
			if rng.Intn(2) == 0 {
				d := 1 + rng.Intn(3)
				demand[l.ID] = d
				total += d
			}
		}
		if total == 0 || total > cfg.DataSlots {
			return true
		}
		p := &Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots}
		o := RandomOrder(p, rng)
		s, err := OrderToSchedule(p, o, total, cfg)
		if err != nil {
			return false
		}
		if err := s.Validate(g); err != nil {
			return false
		}
		for l, d := range demand {
			if s.LinkSlots(l) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the exact ILP min window never exceeds the Bellman-Ford window
// of any heuristic order, and never goes below the clique lower bound.
func TestPropertyMinSlotsBounds(t *testing.T) {
	cfg := tdma.FrameConfig{FrameDuration: 32 * time.Millisecond, DataSlots: 32}
	prop := func(seed int64) bool {
		n := 4 + int(seed%3)
		net, err := topology.Chain(n, 100)
		if err != nil {
			return false
		}
		g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		demand := make(map[topology.LinkID]int)
		var path topology.Path
		for i := 0; i < n-1; i++ {
			l, _ := net.FindLink(topology.NodeID(i), topology.NodeID(i+1))
			demand[l] = 1 + rng.Intn(2)
			path = append(path, l)
		}
		p := &Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots,
			Flows: []FlowRequirement{{Path: path}}}
		win, _, _, err := MinSlots(p, cfg, milp.Options{MaxNodes: 200000})
		if err != nil {
			return false
		}
		if win < p.CliqueLowerBound() {
			return false
		}
		heurWin, _, err := MinWindowForOrder(p, PathMajorOrder(p), cfg)
		if err != nil {
			return true // heuristic may fail where ILP succeeds
		}
		return win <= heurWin
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestFillResidualChain(t *testing.T) {
	cfg := testFrame() // 16 slots
	_, p := chainProblem(t, 4, cfg)
	base, err := OrderToSchedule(p, PathMajorOrder(p), cfg.DataSlots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All forward links as best-effort candidates.
	var be []topology.LinkID
	for l := range p.Demand {
		be = append(be, l)
	}
	ext, counts, err := FillResidual(p, base, be)
	if err != nil {
		t.Fatalf("FillResidual: %v", err)
	}
	if err := ext.Validate(p.Graph); err != nil {
		t.Errorf("extended schedule invalid: %v", err)
	}
	// The three mutually conflicting links share the 13 residual slots:
	// about 4 each, never zero.
	total := 0
	for l, c := range counts {
		if c == 0 {
			t.Errorf("link %d starved", l)
		}
		total += c
	}
	if total < 10 {
		t.Errorf("total BE slots = %d, want >= 10 of 13 residual", total)
	}
	// Fairness: max - min <= 1 on a symmetric clique.
	minC, maxC := 1<<30, 0
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > 1 {
		t.Errorf("unfair BE split: %v", counts)
	}
	// Original QoS assignments are preserved.
	for l, d := range p.Demand {
		if ext.LinkSlots(l) < d {
			t.Errorf("link %d lost QoS slots", l)
		}
	}
}

func TestFillResidualValidation(t *testing.T) {
	cfg := testFrame()
	_, p := chainProblem(t, 4, cfg)
	base, err := OrderToSchedule(p, PathMajorOrder(p), cfg.DataSlots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FillResidual(p, nil, []topology.LinkID{0}); !errors.Is(err, ErrBadDemand) {
		t.Errorf("nil schedule: got %v", err)
	}
	if _, _, err := FillResidual(p, base, nil); !errors.Is(err, ErrBadDemand) {
		t.Errorf("no BE links: got %v", err)
	}
}

func TestResidualCapacityBps(t *testing.T) {
	cfg := testFrame() // 16 ms frame
	counts := map[topology.LinkID]int{1: 2, 3: 2}
	// 4 slots x 1000 bytes per 16 ms = 2 Mb/s.
	if got := ResidualCapacityBps(counts, cfg, 1000); got != 2e6 {
		t.Errorf("ResidualCapacityBps = %g, want 2e6", got)
	}
}

func TestFillResidualMoreVoiceLessBE(t *testing.T) {
	// As guaranteed demand grows, residual BE capacity shrinks.
	cfg := testFrame()
	prevTotal := 1 << 30
	for _, mult := range []int{1, 2, 4} {
		_, p := chainProblem(t, 4, cfg)
		for l := range p.Demand {
			p.Demand[l] = mult
		}
		base, err := OrderToSchedule(p, PathMajorOrder(p), cfg.DataSlots, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var be []topology.LinkID
		for l := range p.Demand {
			be = append(be, l)
		}
		_, counts, err := FillResidual(p, base, be)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total > prevTotal {
			t.Errorf("BE slots grew with voice load: %d then %d", prevTotal, total)
		}
		prevTotal = total
	}
}
