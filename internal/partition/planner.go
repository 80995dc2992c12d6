package partition

import (
	"slices"

	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// ZoneProblem restricts p to the zi'th zone of the decomposition: the zone's
// demands, the start caps, and the delay requirements of flows whose full
// path stays inside it.
func ZoneProblem(p *schedule.Problem, dec *Decomposition, zi int) *schedule.Problem {
	z := &dec.Zones[zi]
	demand := make(map[topology.LinkID]int, len(z.Links))
	for _, l := range z.Links {
		demand[l] = p.Demand[l]
	}
	var flows []schedule.FlowRequirement
	for _, f := range p.Flows {
		if len(f.Path) > 0 && !slices.ContainsFunc(f.Path, func(l topology.LinkID) bool { return dec.zoneOf[l] != zi }) {
			flows = append(flows, f)
		}
	}
	return &schedule.Problem{
		Graph:      p.Graph,
		Demand:     demand,
		FrameSlots: p.FrameSlots,
		Flows:      flows,
		StartCap:   p.StartCap,
	}
}

// activePairs counts conflicting pairs among a problem's demanded links —
// exactly the binary ordering variables its ILP formulation would need, and
// hence the model size the pair gate compares against.
func activePairs(p *schedule.Problem) int {
	n := 0
	for l, d := range p.Demand {
		if d <= 0 {
			continue
		}
		p.Graph.VisitNeighbors(l, func(nb topology.LinkID) bool {
			if nb > l && p.Demand[nb] > 0 {
				n++
			}
			return true
		})
	}
	return n
}

// ZoneSolution is one zone's schedule as the zone planner hands it back.
type ZoneSolution struct {
	// Blocks is the zone's layout, one block per demanded link, in
	// tdma.ByStart order: the placement hint of a stitch.
	Blocks []tdma.Assignment
	// Window is the window the search proved minimal over its range, or the
	// makespan of a greedy packing.
	Window int
	// Solved and Pivots count the integer programs and simplex pivots spent,
	// also when the search ends in an error.
	Solved, Pivots int
	// Cold: the zone's model was built or grown for this solve. Greedy: the
	// zone was past the pair gate and packed greedily.
	Cold, Greedy bool
}

// Models is the zone planner's state: one persistent ILP model
// (schedule.Incremental) per zone. A zone's model is built on its first
// exact solve, over that zone problem — its demanded links and in-zone
// flows — and grown by Cover after that; a zone the pair gate sends to the
// greedy packing never gets one. Calls for one zone must not overlap; calls
// for different zones may.
type Models struct {
	frame tdma.FrameConfig
	zones []*schedule.Incremental
}

// NewModels returns a planner for the given number of zones, no model built.
func NewModels(zones int, frame tdma.FrameConfig) *Models {
	return &Models{frame: frame, zones: make([]*schedule.Incremental, zones)}
}

// Model returns zone zi's model covering p's demand, building it over p on
// first use; cold reports that the model was built or grown.
func (ms *Models) Model(zi int, p *schedule.Problem) (m *schedule.Incremental, cold bool, err error) {
	if m = ms.zones[zi]; m == nil {
		m, err = schedule.NewIncremental(p, ms.frame)
		ms.zones[zi] = m
		return m, err == nil, err
	}
	cold, err = m.Cover(p.Demand)
	return m, cold, err
}

// SolveZone is the one zone-solve policy. A zone problem with more than
// maxPairs conflicting demanded pairs (every zone, when maxPairs < 0) is
// packed greedily, without a model: beyond a couple hundred ordering
// variables the branch-and-bound stops paying for itself (see
// DefaultMaxZonePairs). Otherwise the zone's model searches for the minimum
// window up to hi (0 = the frame), probing hint first. When the node budget
// runs out the error is milp.ErrLimit and the solution carries the counts
// spent; what to do then is the caller's.
func (ms *Models) SolveZone(zi int, zp *schedule.Problem, hint, hi, maxPairs int, opts milp.Options) (ZoneSolution, error) {
	if activePairs(zp) > maxPairs {
		gs, err := schedule.Greedy(zp, ms.frame)
		if err != nil {
			return ZoneSolution{}, err
		}
		slices.SortFunc(gs.Assignments, tdma.ByStart)
		return ZoneSolution{Blocks: gs.Assignments, Window: schedule.GreedyLength(gs), Greedy: true}, nil
	}
	m, cold, err := ms.Model(zi, zp)
	if err != nil {
		return ZoneSolution{}, err
	}
	r, err := Search(m, zp, hint, 0, hi, opts)
	r.Cold = cold
	return r, err
}

// Search runs model m's minimum-window search over [lo, hi] from hint (see
// schedule.Incremental.MinSlots) and returns it as a ZoneSolution.
func Search(m *schedule.Incremental, p *schedule.Problem, hint, lo, hi int, opts milp.Options) (ZoneSolution, error) {
	win, s, solved, pivots, err := m.MinSlots(p, hint, lo, hi, opts)
	r := ZoneSolution{Window: win, Solved: solved, Pivots: pivots}
	if err == nil {
		r.Blocks = s.Assignments
		slices.SortFunc(r.Blocks, tdma.ByStart)
	}
	return r, err
}
