package conflict_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"wimesh/internal/conflict"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// An order over a conflict graph induces a difference-constraint system on
// the demanded links' starts: x_b - x_a >= d_a for every conflicting pair with
// a first, and 0 <= x_l <= win - d_l. The tests below pin that system as the
// schedule package's order pass solves it: an order ranks the links, a before
// b when (rank, ID) of a is smaller, so the system is acyclic and the pass is
// one longest-path sweep in rank order.

const constraintFrame = 64

var constraintCfg = tdma.FrameConfig{FrameDuration: 20_000_000, DataSlots: constraintFrame}

func chainGraph(t *testing.T, n int, m conflict.Model) (*topology.Network, *conflict.Graph) {
	t.Helper()
	net, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: m, InterferenceRange: 250})
	if err != nil {
		t.Fatalf("Build(%v): %v", m, err)
	}
	return net, g
}

func chainLink(t *testing.T, net *topology.Network, a, b topology.NodeID) topology.LinkID {
	t.Helper()
	l, err := net.FindLink(a, b)
	if err != nil {
		t.Fatalf("FindLink(%d,%d): %v", a, b, err)
	}
	return l
}

// violated returns a description of the first constraint of the order's
// system that s breaks at window win, or "" when s satisfies them all.
func violated(g *conflict.Graph, o schedule.Order, s *tdma.Schedule, win int) string {
	for _, a := range s.Assignments {
		if a.Start < 0 || a.End() > win {
			return "window bound"
		}
		for _, b := range s.Assignments {
			first := o[a.Link] < o[b.Link] || o[a.Link] == o[b.Link] && a.Link < b.Link
			if a.Link != b.Link && first && g.Conflicts(a.Link, b.Link) && b.Start-a.Start < a.Length {
				return "pair order"
			}
		}
	}
	return ""
}

func TestConstraintSystemFeasible(t *testing.T) {
	// 0->1, 1->2, 2->3 in order, demands 2, 1, 3: the longest path is 6 and
	// at that window the starts are forced to 0, 2, 3.
	net, g := chainGraph(t, 4, conflict.ModelPrimary)
	a, b, c := chainLink(t, net, 0, 1), chainLink(t, net, 1, 2), chainLink(t, net, 2, 3)
	p := &schedule.Problem{Graph: g, Demand: map[topology.LinkID]int{a: 2, b: 1, c: 3}, FrameSlots: constraintFrame}
	o := make(schedule.Order, g.NumVertices())
	o[a], o[b], o[c] = 0, 1, 2
	win, s, err := schedule.MinWindowForOrder(p, o, constraintCfg)
	if err != nil {
		t.Fatalf("MinWindowForOrder: %v", err)
	}
	if win != 6 {
		t.Fatalf("window %d, want 6", win)
	}
	want := map[topology.LinkID]int{a: 0, b: 2, c: 3}
	for _, as := range s.Assignments {
		if as.Start != want[as.Link] {
			t.Errorf("link %d starts at %d, want %d", as.Link, as.Start, want[as.Link])
		}
	}
	for _, w := range []int{6, 7, 20} {
		s, err := schedule.OrderToSchedule(p, o, w, constraintCfg)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if v := violated(g, o, s, w); v != "" {
			t.Errorf("window %d: %s constraint violated: %v", w, v, s.Assignments)
		}
	}
}

func TestConstraintSystemInfeasible(t *testing.T) {
	// 0->1, 1->2 and 1->0 pairwise share node 1, so any order chains them:
	// a window one slot shorter than that path is infeasible.
	net, g := chainGraph(t, 3, conflict.ModelPrimary)
	a, b, c := chainLink(t, net, 0, 1), chainLink(t, net, 1, 2), chainLink(t, net, 1, 0)
	p := &schedule.Problem{Graph: g, Demand: map[topology.LinkID]int{a: 1, b: 1, c: 1}, FrameSlots: constraintFrame}
	chain := make(schedule.Order, g.NumVertices())
	chain[a], chain[b], chain[c] = 0, 1, 2
	if _, err := schedule.OrderToSchedule(p, chain, 2, constraintCfg); !errors.Is(err, schedule.ErrInfeasible) {
		t.Errorf("window 2 under a 3-slot path: got %v, want ErrInfeasible", err)
	}
	if _, err := schedule.OrderToSchedule(p, chain, 3, constraintCfg); err != nil {
		t.Errorf("window 3: %v", err)
	}
}

func TestConstraintSystemGE(t *testing.T) {
	// 0->1 (2 slots) and 1->2 (1 slot) conflict: whichever goes first, the
	// second starts at least the first's demand later, at every window.
	net, g := chainGraph(t, 3, conflict.ModelPrimary)
	a, b := chainLink(t, net, 0, 1), chainLink(t, net, 1, 2)
	p := &schedule.Problem{Graph: g, Demand: map[topology.LinkID]int{a: 2, b: 1}, FrameSlots: constraintFrame}
	for _, first := range []topology.LinkID{a, b} {
		second := a + b - first
		o := make(schedule.Order, g.NumVertices())
		o[second] = 1
		for w := 3; w <= 10; w++ {
			s, err := schedule.OrderToSchedule(p, o, w, constraintCfg)
			if err != nil {
				t.Fatalf("link %d first, window %d: %v", first, w, err)
			}
			start := map[topology.LinkID]int{}
			for _, as := range s.Assignments {
				start[as.Link] = as.Start
			}
			if gap := start[second] - start[first]; gap < p.Demand[first] {
				t.Errorf("link %d first, window %d: gap %d, want >= %d", first, w, gap, p.Demand[first])
			}
		}
	}
}

// Property: every schedule the order pass returns for a random order
// satisfies each constraint of the order's system, at the minimum window and
// wider ones.
func TestPropertySolveSatisfiesConstraints(t *testing.T) {
	net, g := chainGraph(t, 5, conflict.ModelTwoHop)
	links := net.Links()
	prop := func(demand [8]uint8, seed int64) bool {
		p := &schedule.Problem{Graph: g, Demand: make(map[topology.LinkID]int), FrameSlots: constraintFrame}
		for i, d := range demand {
			if d%4 != 0 {
				p.Demand[links[i%len(links)].ID] = int(d % 4)
			}
		}
		o := schedule.RandomOrder(p, rand.New(rand.NewSource(seed)))
		win, s, err := schedule.MinWindowForOrder(p, o, constraintCfg)
		if err != nil {
			return false // an order over at most 24 slots fits the frame
		}
		if violated(g, o, s, win) != "" {
			return false
		}
		for _, w := range []int{win + 1, win + 9} {
			if s, err = schedule.OrderToSchedule(p, o, w, constraintCfg); err != nil || violated(g, o, s, w) != "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
