// Package schedule implements the TDMA link-scheduling optimizations of the
// Djukic-Valaee line of work, the core contribution reproduced by this
// repository:
//
//   - converting per-flow bandwidth demands into per-link slot demands;
//   - turning a transmission order — here a ranking of the links, acyclic
//     by construction — into a concrete conflict-free schedule by solving
//     its difference-constraint system: the papers' Bellman-Ford step, one
//     longest-path sweep in rank order (the papers see scheduling delay as
//     cost over cycles in the conflict graph);
//   - finding minimum-frame-length schedules by linear search with an
//     integer-program feasibility test at each step;
//   - optimizing the transmission order for min-max end-to-end scheduling
//     delay (exact binary program; polynomial tree ordering; greedy
//     path-major ordering);
//   - a greedy-coloring baseline scheduler for comparison.
package schedule

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"wimesh/internal/conflict"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// Package errors.
var (
	// ErrInfeasible reports that no conflict-free schedule satisfying the
	// demands (and delay bounds) exists for the given frame length.
	ErrInfeasible = errors.New("schedule: infeasible")
	// ErrBadDemand reports invalid demand input.
	ErrBadDemand = errors.New("schedule: bad demand")
)

// FlowRequirement is a per-flow delay requirement used by the optimizers:
// the flow's path and its end-to-end scheduling-delay budget in slots
// (0 = unconstrained).
type FlowRequirement struct {
	Path       topology.Path
	BoundSlots int
}

// Problem bundles the inputs of the scheduling optimizations.
//
// Graph and Demand are treated as immutable once the optimizers start
// consuming the problem: the derived views (ActiveLinks, conflictingPairs,
// CliqueLowerBound) are computed once and cached on the Problem, keyed by a
// cheap fingerprint of Demand so stale caches are dropped if a caller does
// mutate demands between optimizations. The cache is safe for concurrent
// readers.
type Problem struct {
	// Graph is the conflict graph of the mesh.
	Graph *conflict.Graph
	// Demand maps each active link to its slot demand per frame. Links
	// absent from the map (or with zero demand) are inactive.
	Demand map[topology.LinkID]int
	// FrameSlots is the number of data slots in the full frame (the wrap
	// period for delay computation).
	FrameSlots int
	// Flows lists the delay requirements (may be empty).
	Flows []FlowRequirement
	// StartCap optionally bounds a link's start slot absolutely (inclusive),
	// on top of the window bound win-demand. It is how service-class
	// deadlines reach the solvers: a link whose traffic must complete its
	// first k slots by deadline D gets StartCap[l] = D - k, and the solution
	// interval [s, s+d) then covers those k slots by D. Links absent from
	// the map (or with no demand) are uncapped. A cap below zero makes the
	// link infeasible at every window. Caps only ever tighten the
	// window-relaxation monotonicity (they are window-independent), so the
	// window searches stay sound.
	StartCap map[topology.LinkID]int

	// Cached derived views, guarded by mu and keyed by cacheFP.
	mu       sync.Mutex
	cacheFP  uint64
	active   []topology.LinkID
	pairs    [][2]topology.LinkID
	cliqueLB int
	haveLB   bool
}

// fingerprint summarizes the demand map (and graph identity) so the caches
// self-invalidate if a caller mutates demands. Commutative over map entries.
func (p *Problem) fingerprint() uint64 {
	const mix = 0x9e3779b97f4a7c15
	fp := uint64(len(p.Demand))*mix + uint64(p.Graph.NumVertices())
	for l, d := range p.Demand {
		if d > 0 {
			h := (uint64(l)+1)*mix ^ uint64(d)
			h *= 0xbf58476d1ce4e5b9
			fp += h ^ (h >> 29)
		}
	}
	return fp
}

// refreshLocked drops stale caches; callers must hold p.mu.
func (p *Problem) refreshLocked() {
	if fp := p.fingerprint(); fp != p.cacheFP {
		p.cacheFP = fp
		p.active = nil
		p.pairs = nil
		p.haveLB = false
	}
}

// activeLinks returns the cached active-link slice (sorted ascending).
// Callers must not mutate the result.
func (p *Problem) activeLinks() []topology.LinkID {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refreshLocked()
	if p.active == nil {
		active := make([]topology.LinkID, 0, len(p.Demand))
		for l, d := range p.Demand {
			if d > 0 {
				active = append(active, l)
			}
		}
		sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
		p.active = active
	}
	return p.active
}

// conflictingPairs returns the cached unordered pairs (a, b), a < b, of
// active links that conflict, sorted lexicographically. Callers must not
// mutate the result.
func (p *Problem) conflictingPairs() [][2]topology.LinkID {
	active := p.activeLinks()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refreshLocked()
	if p.pairs == nil {
		isActive := make([]bool, p.Graph.NumVertices())
		for _, l := range active {
			isActive[l] = true
		}
		pairs := make([][2]topology.LinkID, 0, len(active))
		for _, a := range active {
			p.Graph.VisitNeighbors(a, func(b topology.LinkID) bool {
				if b > a && isActive[b] {
					pairs = append(pairs, [2]topology.LinkID{a, b})
				}
				return true
			})
		}
		// VisitNeighbors yields each row sorted, so pairs come out in
		// lexicographic (a, b) order already.
		p.pairs = pairs
	}
	return p.pairs
}

// Validate checks the problem for consistency.
func (p *Problem) Validate() error {
	if p.Graph == nil {
		return fmt.Errorf("%w: nil conflict graph", ErrBadDemand)
	}
	if p.FrameSlots <= 0 {
		return fmt.Errorf("%w: non-positive frame slots %d", ErrBadDemand, p.FrameSlots)
	}
	for l, d := range p.Demand {
		if l < 0 || int(l) >= p.Graph.NumVertices() {
			return fmt.Errorf("%w: demand on link %d outside graph of %d links", ErrBadDemand, l, p.Graph.NumVertices())
		}
		if d < 0 {
			return fmt.Errorf("%w: negative demand %d on link %d", ErrBadDemand, d, p.Graph.Origin(l))
		}
		if d > p.FrameSlots {
			return fmt.Errorf("%w: demand %d on link %d exceeds frame of %d slots",
				ErrBadDemand, d, p.Graph.Origin(l), p.FrameSlots)
		}
	}
	for i, f := range p.Flows {
		for _, l := range f.Path {
			if p.Demand[l] <= 0 {
				return fmt.Errorf("%w: flow %d uses link %d with no demand", ErrBadDemand, i, p.Graph.Origin(l))
			}
		}
		if f.BoundSlots < 0 {
			return fmt.Errorf("%w: negative delay bound on flow %d", ErrBadDemand, i)
		}
	}
	return nil
}

// ActiveLinks returns the links with positive demand, sorted ascending.
// The slice is a copy of the cached view and may be mutated by the caller.
func (p *Problem) ActiveLinks() []topology.LinkID {
	active := p.activeLinks()
	if len(active) == 0 {
		return nil
	}
	out := make([]topology.LinkID, len(active))
	copy(out, active)
	return out
}

// CliqueLowerBound returns a lower bound on the schedule length: the total
// demand of a greedy maximal clique in the conflict graph (links of a clique
// must occupy disjoint slots), but at least the maximum single demand.
// The bound is computed once per demand fingerprint and cached.
func (p *Problem) CliqueLowerBound() int {
	p.mu.Lock()
	p.refreshLocked()
	if p.haveLB {
		lb := p.cliqueLB
		p.mu.Unlock()
		return lb
	}
	p.mu.Unlock()

	w := make(map[topology.LinkID]float64, len(p.Demand))
	maxSingle := 0
	for l, d := range p.Demand {
		if d > 0 {
			w[l] = float64(d)
			if d > maxSingle {
				maxSingle = d
			}
		}
	}
	_, weight := p.Graph.GreedyClique(w)
	lb := int(weight + 0.5)
	if lb < maxSingle {
		lb = maxSingle
	}

	p.mu.Lock()
	p.cliqueLB, p.haveLB = lb, true
	p.mu.Unlock()
	return lb
}

// checkSchedule verifies that a produced schedule meets the demands and is
// conflict-free (defensive check used by the solvers before returning).
func (p *Problem) checkSchedule(s *tdma.Schedule) error {
	if err := s.Validate(p.Graph); err != nil {
		return err
	}
	if l, got, short := s.Shortfall(p.Demand); short {
		return fmt.Errorf("%w: link %d got %d slots, demand %d", ErrInfeasible, p.Graph.Origin(l), got, p.Demand[l])
	}
	return nil
}
