package schedule

import (
	"fmt"
	"math"
	"slices"

	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// orderPass turns a transmission order into slots. The papers solve the
// difference constraints
//
//	s_b - s_a >= d_a            for every ordered conflicting pair a before b
//	0 <= s_l <= win - d_l       for every active link l
//
// with Bellman-Ford. Every order built here is acyclic and never wraps the
// frame, so the constraint graph is a DAG and Bellman-Ford is one
// longest-path pass in topological order; a cyclic order is the
// negative-cycle case (scheduling delay as cycle cost), infeasible at every
// window. Vertex i is p.activeLinks()[i]; its arcs i→j (i transmits first)
// are succ[first[i]:first[i+1]].
type orderPass struct {
	p                 *Problem
	active            []topology.LinkID // cached view; do not mutate
	d                 []int
	first, succ, topo []int32 // topo: the vertices in topological order
	span, lead        int     // the longest path; the latest earliest start
}

// newOrderPass orients every conflicting pair of p's demanded links by
// before (ok false: the pair is unordered, ErrBadDemand) and runs Kahn's
// algorithm over the earliest starts. p must be valid.
func newOrderPass(p *Problem, before func(a, b topology.LinkID) (first, ok bool)) (*orderPass, error) {
	active := p.activeLinks()
	n := len(active)
	op := &orderPass{p: p, active: active, d: make([]int, n), first: make([]int32, n+1)}
	idx := make([]int32, p.Graph.NumVertices()) // vertex + 1; 0 for an undemanded link
	for i, l := range active {
		idx[l], op.d[i] = int32(i)+1, p.Demand[l]
	}
	var arcs [][2]int32
	indeg := make([]int32, n)
	for i, a := range active {
		ok := true
		p.Graph.VisitNeighbors(a, func(b topology.LinkID) bool {
			if j := idx[b] - 1; j > int32(i) { // each pair once, from its lower end
				arc := [2]int32{int32(i), j}
				var first bool
				if first, ok = before(a, b); !first {
					arc = [2]int32{j, int32(i)}
				}
				arcs = append(arcs, arc)
				op.first[arc[0]+1]++
				indeg[arc[1]]++
			}
			return ok
		})
		if !ok {
			return nil, fmt.Errorf("%w: order does not cover all conflicting pairs", ErrBadDemand)
		}
	}
	for i := range n {
		op.first[i+1] += op.first[i]
	}
	op.succ = make([]int32, len(arcs))
	fill := slices.Clone(op.first[:n])
	for _, a := range arcs {
		op.succ[fill[a[0]]] = a[1]
		fill[a[0]]++
	}
	op.topo = make([]int32, 0, n)
	for i, k := range indeg {
		if k == 0 {
			op.topo = append(op.topo, int32(i))
		}
	}
	est := make([]int, n)
	for k := 0; k < len(op.topo); k++ {
		i := op.topo[k]
		end := est[i] + op.d[i]
		op.span, op.lead = max(op.span, end), max(op.lead, est[i])
		for _, j := range op.succ[op.first[i]:op.first[i+1]] {
			est[j] = max(est[j], end)
			if indeg[j]--; indeg[j] == 0 {
				op.topo = append(op.topo, j)
			}
		}
	}
	if len(op.topo) < n {
		return nil, fmt.Errorf("%w: order is cyclic", ErrInfeasible)
	}
	return op, nil
}

// schedule lays the order out in a window of win slots at Bellman-Ford's own
// solution, the latest starts shifted so the earliest is slot 0: in reverse
// topological order s_i = min(lead, win - d_i, min over arcs i→j of
// s_j - d_i). A longest path above win is ErrInfeasible.
func (op *orderPass) schedule(win int, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	if op.span > win {
		return nil, fmt.Errorf("%w: order needs %d slots, window %d", ErrInfeasible, op.span, win)
	}
	starts := make([]int, len(op.active))
	for k := len(op.topo) - 1; k >= 0; k-- {
		i := op.topo[k]
		s := min(op.lead, win-op.d[i])
		for _, j := range op.succ[op.first[i]:op.first[i+1]] {
			s = min(s, starts[j]-op.d[i])
		}
		starts[i] = s
	}
	s, err := tdma.NewSchedule(cfg)
	if err != nil {
		return nil, err
	}
	for i, l := range op.active {
		if err := s.Add(tdma.Assignment{Link: l, Start: starts[i], Length: op.d[i]}); err != nil {
			return nil, fmt.Errorf("link %d start %d: %w", op.p.Graph.Origin(l), starts[i], err)
		}
	}
	if err := op.p.checkSchedule(s); err != nil {
		return nil, fmt.Errorf("order to schedule: %w", err)
	}
	return s, nil
}

// validWindow validates p and checks that a window of win slots fits a frame
// of frame data slots.
func validWindow(p *Problem, win, frame int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if win <= 0 || win > frame {
		return fmt.Errorf("%w: window %d outside frame of %d slots", ErrBadDemand, win, frame)
	}
	return nil
}

// OrderToSchedule converts a complete transmission order into a concrete
// conflict-free schedule within a window of winSlots slots, each link as late
// as the order and the window allow, shifted so the earliest starts at slot
// 0 (see orderPass). A cyclic order, or one whose longest path exceeds the
// window, is ErrInfeasible; an incomplete order ErrBadDemand. winSlots must
// not exceed cfg.DataSlots.
func OrderToSchedule(p *Problem, o *Order, winSlots int, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	if err := validWindow(p, winSlots, cfg.DataSlots); err != nil {
		return nil, err
	}
	op, err := newOrderPass(p, o.Before)
	if err != nil {
		return nil, err
	}
	return op.schedule(winSlots, cfg)
}

// MinWindowForOrder returns the order's smallest window — its longest path,
// at least one slot — and its schedule there. It returns ErrInfeasible when
// even the full frame cannot host the order.
func MinWindowForOrder(p *Problem, o *Order, cfg tdma.FrameConfig) (int, *tdma.Schedule, error) {
	if err := validWindow(p, cfg.DataSlots, cfg.DataSlots); err != nil {
		return 0, nil, err
	}
	return minWindow(p, o.Before, cfg)
}

// PathMajorWindow is MinWindowForOrder(p, PathMajorOrder(p), cfg) without
// building the Order: a conflicting pair is oriented by its links' path-major
// ranks, then by link ID.
func PathMajorWindow(p *Problem, cfg tdma.FrameConfig) (int, *tdma.Schedule, error) {
	if err := validWindow(p, cfg.DataSlots, cfg.DataSlots); err != nil {
		return 0, nil, err
	}
	rank := make([]int32, p.Graph.NumVertices())
	for i := range rank {
		rank[i] = math.MaxInt32
	}
	for _, f := range p.Flows {
		for pos, l := range f.Path {
			if rank[l] == math.MaxInt32 || int32(pos) > rank[l] {
				rank[l] = int32(pos)
			}
		}
	}
	return minWindow(p, func(a, b topology.LinkID) (bool, bool) {
		return rank[a] < rank[b] || rank[a] == rank[b] && a < b, true
	}, cfg)
}

// minWindow lays a valid problem's order out in its smallest window.
func minWindow(p *Problem, before func(a, b topology.LinkID) (bool, bool), cfg tdma.FrameConfig) (int, *tdma.Schedule, error) {
	op, err := newOrderPass(p, before)
	if err != nil {
		return 0, nil, err
	}
	win := max(op.span, 1)
	s, err := op.schedule(min(win, cfg.DataSlots), cfg)
	if err != nil {
		return 0, nil, err
	}
	return win, s, nil
}
