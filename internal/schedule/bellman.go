package schedule

import (
	"fmt"
	"math"

	"wimesh/internal/conflict"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// orderSystem is the difference-constraint system of a (problem, order) pair
// with the window size left adjustable: the pair constraints are built once,
// and successive feasibility probes (the binary search of MinWindowForOrder)
// only re-tighten the per-link window bounds via SetBound instead of
// rebuilding all O(pairs) constraints.
type orderSystem struct {
	p      *Problem
	active []topology.LinkID // cached view; do not mutate
	cs     *conflict.ConstraintSystem
	zero   int // index of the zero-reference variable
}

// newOrderSystem validates the inputs and builds the constraint system.
// The window bounds are left slack; call solve(win) to probe a window.
func newOrderSystem(p *Problem, o *Order) (*orderSystem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !o.Complete(p) {
		return nil, fmt.Errorf("%w: order does not cover all conflicting pairs", ErrBadDemand)
	}
	active := p.activeLinks()
	idx := make(map[topology.LinkID]int, len(active))
	for i, l := range active {
		idx[l] = i
	}
	// Variable layout: 0..n-1 = link start slots, n = zero reference.
	n := len(active)
	sys := &orderSystem{
		p:      p,
		active: active,
		cs:     conflict.NewConstraintSystem(n + 1),
		zero:   n,
	}
	for i := range active {
		// Constraint 2i: 0 <= s_l, i.e. s_l - zero >= 0.
		if err := sys.cs.AddGE(i, sys.zero, 0); err != nil {
			return nil, err
		}
		// Constraint 2i+1: s_l <= win - d_l; bound set per probe by solve.
		if err := sys.cs.AddLE(i, sys.zero, 0); err != nil {
			return nil, err
		}
	}
	for _, pair := range p.conflictingPairs() {
		a, b := pair[0], pair[1]
		aFirst, _ := o.Before(a, b)
		if !aFirst {
			a, b = b, a
		}
		// s_b >= s_a + d_a.
		if err := sys.cs.AddGE(idx[b], idx[a], float64(p.Demand[a])); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// solve re-tightens the window bounds to winSlots and solves the system,
// returning the start assignment (zero reference at index zero).
func (sys *orderSystem) solve(winSlots int) ([]float64, error) {
	for i, l := range sys.active {
		if err := sys.cs.SetBound(2*i+1, float64(winSlots-sys.p.Demand[l])); err != nil {
			return nil, err
		}
	}
	x, err := sys.cs.Solve()
	if err != nil {
		return nil, fmt.Errorf("%w: order needs more than %d slots: %v", ErrInfeasible, winSlots, err)
	}
	return x, nil
}

// schedule solves for winSlots and materializes the schedule.
func (sys *orderSystem) schedule(winSlots int, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	x, err := sys.solve(winSlots)
	if err != nil {
		return nil, err
	}
	s, err := NewScheduleFromStarts(sys.p, sys.active, x, x[sys.zero], cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.p.checkSchedule(s); err != nil {
		return nil, fmt.Errorf("order to schedule: %w", err)
	}
	return s, nil
}

// OrderToSchedule converts a complete transmission order into a concrete
// conflict-free schedule within a window of winSlots slots, by solving the
// difference-constraint system
//
//	s_b - s_a >= d_a            for every ordered conflicting pair a before b
//	0 <= s_l <= winSlots - d_l  for every active link l
//
// with Bellman-Ford (internal/conflict.ConstraintSystem). If the system has
// a negative cycle — the order's cycle cost exceeds the window, the
// "scheduling delay as cycle cost" view of the Djukic-Valaee papers — it
// returns ErrInfeasible.
//
// The produced schedule occupies slots [0, winSlots) of the frame described
// by cfg; winSlots must not exceed cfg.DataSlots.
func OrderToSchedule(p *Problem, o *Order, winSlots int, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if winSlots <= 0 || winSlots > cfg.DataSlots {
		return nil, fmt.Errorf("%w: window %d outside frame of %d slots",
			ErrBadDemand, winSlots, cfg.DataSlots)
	}
	sys, err := newOrderSystem(p, o)
	if err != nil {
		return nil, err
	}
	return sys.schedule(winSlots, cfg)
}

// NewScheduleFromStarts builds a schedule from per-link fractional start
// values relative to a zero reference, rounding to integral slots. The
// constraint systems built by this package have integral data, so the
// Bellman-Ford and simplex solutions are integral up to floating-point
// noise.
func NewScheduleFromStarts(p *Problem, links []topology.LinkID, starts []float64, zeroRef float64, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	s, err := tdma.NewSchedule(cfg)
	if err != nil {
		return nil, err
	}
	for i, l := range links {
		d := p.Demand[l]
		if d == 0 {
			continue
		}
		start := int(math.Round(starts[i] - zeroRef))
		if err := s.Add(tdma.Assignment{Link: l, Start: start, Length: d}); err != nil {
			return nil, fmt.Errorf("link %d start %g: %w", p.Graph.Origin(l), starts[i]-zeroRef, err)
		}
	}
	return s, nil
}

// MinWindowForOrder finds the smallest window (binary search between the
// clique lower bound and the frame size) for which the order is feasible,
// and returns the window and its schedule. It returns ErrInfeasible when
// even the full frame cannot host the order.
//
// One constraint system is built up front and shared across all probes; each
// probe only re-tightens the window bounds and re-runs Bellman-Ford, and the
// schedule is materialized once at the final window.
func MinWindowForOrder(p *Problem, o *Order, cfg tdma.FrameConfig) (int, *tdma.Schedule, error) {
	sys, err := newOrderSystem(p, o)
	if err != nil {
		return 0, nil, err
	}
	if cfg.DataSlots <= 0 {
		return 0, nil, fmt.Errorf("%w: window %d outside frame of %d slots",
			ErrBadDemand, cfg.DataSlots, cfg.DataSlots)
	}
	lo, hi := p.CliqueLowerBound(), cfg.DataSlots
	if lo < 1 {
		lo = 1
	}
	if _, err := sys.solve(hi); err != nil {
		return 0, nil, err
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if _, err := sys.solve(mid); err == nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s, err := sys.schedule(lo, cfg)
	if err != nil {
		return 0, nil, err
	}
	return lo, s, nil
}
