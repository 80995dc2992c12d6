package schedule

import (
	"cmp"
	"fmt"
	"slices"

	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// orderPass turns a transmission order into slots. The papers solve the
// difference constraints
//
//	s_b - s_a >= d_a            for every conflicting pair, a before b
//	0 <= s_l <= win - d_l       for every active link l
//
// with Bellman-Ford. An Order is a ranking that never wraps the frame, so
// the constraint graph is acyclic, the demanded links sorted by (rank, ID)
// are a topological order of it, and Bellman-Ford is one longest-path sweep
// in that order. Vertex i is p.activeLinks()[i]; its arcs i→j (i transmits
// first) are succ[first[i]:first[i+1]].
type orderPass struct {
	p                 *Problem
	active            []topology.LinkID // cached view; do not mutate
	d                 []int
	first, succ, topo []int32 // topo: the vertices in (rank, ID) order
	span, lead        int     // the longest path; the latest earliest start
}

// newOrderPass orients every conflicting pair of p's demanded links by o and
// sweeps the earliest starts in rank order. p must be valid and o nil or at
// least as long as p's graph.
func newOrderPass(p *Problem, o Order) *orderPass {
	active := p.activeLinks()
	n := len(active)
	if o == nil {
		o = make(Order, p.Graph.NumVertices())
	}
	op := &orderPass{p: p, active: active, d: make([]int, n), first: make([]int32, n+1), topo: make([]int32, n)}
	idx := make([]int32, p.Graph.NumVertices()) // vertex + 1; 0 for an undemanded link
	for i, l := range active {
		idx[l], op.d[i], op.topo[i] = int32(i)+1, p.Demand[l], int32(i)
	}
	for i, a := range active {
		p.Graph.VisitNeighbors(a, func(b topology.LinkID) bool {
			if j := idx[b] - 1; j >= 0 && (o[a] < o[b] || o[a] == o[b] && a < b) {
				op.succ = append(op.succ, j)
			}
			return true
		})
		op.first[i+1] = int32(len(op.succ))
	}
	// active is ascending, so vertex order breaks rank ties by link ID.
	slices.SortFunc(op.topo, func(i, j int32) int {
		return cmp.Or(cmp.Compare(o[active[i]], o[active[j]]), cmp.Compare(i, j))
	})
	est := make([]int, n)
	for _, i := range op.topo {
		end := est[i] + op.d[i]
		op.span, op.lead = max(op.span, end), max(op.lead, est[i])
		for _, j := range op.succ[op.first[i]:op.first[i+1]] {
			est[j] = max(est[j], end)
		}
	}
	return op
}

// schedule lays the order out in a window of win slots at Bellman-Ford's own
// solution, the latest starts shifted so the earliest is slot 0: in reverse
// rank order s_i = min(lead, win - d_i, min over arcs i→j of
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

// validWindow validates p, checks that o ranks every link of p's graph
// (nil ranks them all) and that a window of win slots fits a frame of frame
// data slots.
func validWindow(p *Problem, o Order, win, frame int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if o != nil && len(o) < p.Graph.NumVertices() {
		return fmt.Errorf("%w: order ranks %d of %d links", ErrBadDemand, len(o), p.Graph.NumVertices())
	}
	if win <= 0 || win > frame {
		return fmt.Errorf("%w: window %d outside frame of %d slots", ErrBadDemand, win, frame)
	}
	return nil
}

// OrderToSchedule converts a transmission order into a concrete
// conflict-free schedule within a window of winSlots slots, each link as late
// as the order and the window allow, shifted so the earliest starts at slot
// 0 (see orderPass). An order whose longest path exceeds the window is
// ErrInfeasible. winSlots must not exceed cfg.DataSlots.
func OrderToSchedule(p *Problem, o Order, winSlots int, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	if err := validWindow(p, o, winSlots, cfg.DataSlots); err != nil {
		return nil, err
	}
	return newOrderPass(p, o).schedule(winSlots, cfg)
}

// MinWindowForOrder returns the order's smallest window — its longest path,
// at least one slot — and its schedule there. It returns ErrInfeasible when
// even the full frame cannot host the order.
func MinWindowForOrder(p *Problem, o Order, cfg tdma.FrameConfig) (int, *tdma.Schedule, error) {
	if err := validWindow(p, o, cfg.DataSlots, cfg.DataSlots); err != nil {
		return 0, nil, err
	}
	op := newOrderPass(p, o)
	win := max(op.span, 1)
	s, err := op.schedule(min(win, cfg.DataSlots), cfg)
	if err != nil {
		return 0, nil, err
	}
	return win, s, nil
}
