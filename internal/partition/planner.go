package partition

import (
	"slices"

	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// ZoneProblem restricts p to the zi'th zone of the decomposition, on the
// zone's induced conflict graph in zone-local IDs (see Decomposition): the
// zone's demands, their start caps, and the delay requirements of flows
// whose full path stays inside it.
func ZoneProblem(p *schedule.Problem, dec *Decomposition, zi int) *schedule.Problem {
	z := &dec.Zones[zi]
	demand := make(map[topology.LinkID]int, len(z.Links))
	var caps map[topology.LinkID]int
	for i, l := range z.Links {
		demand[topology.LinkID(i)] = p.Demand[l]
		if c, ok := p.StartCap[l]; ok {
			if caps == nil {
				caps = make(map[topology.LinkID]int)
			}
			caps[topology.LinkID(i)] = c
		}
	}
	var flows []schedule.FlowRequirement
	for _, f := range p.Flows {
		if len(f.Path) == 0 || slices.ContainsFunc(f.Path, func(l topology.LinkID) bool { return dec.ZoneOf(l) != zi }) {
			continue
		}
		path := make(topology.Path, len(f.Path))
		for k, l := range f.Path {
			path[k] = dec.Local(l)
		}
		flows = append(flows, schedule.FlowRequirement{Path: path, BoundSlots: f.BoundSlots})
	}
	return &schedule.Problem{
		Graph:      dec.zoneGraph(zi),
		Demand:     demand,
		FrameSlots: p.FrameSlots,
		Flows:      flows,
		StartCap:   caps,
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
	// Blocks is the zone's layout in city link IDs, one block per demanded
	// link, in tdma.ByStart order: the placement hint of a stitch.
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

// Models is the zone planner's state over one decomposition: one persistent
// ILP model (schedule.Incremental) per zone, in zone-local IDs. A zone's
// model is built on its first exact solve, over that zone problem — its
// demanded links and in-zone flows — and grown by Cover after that; a zone
// the pair gate sends to the greedy packing never gets one. Calls for one
// zone must not overlap; calls for different zones may.
type Models struct {
	dec   *Decomposition
	frame tdma.FrameConfig
	zones []*schedule.Incremental
}

// NewModels returns a planner for the decomposition's zones, no model built.
func NewModels(dec *Decomposition, frame tdma.FrameConfig) *Models {
	return &Models{dec: dec, frame: frame, zones: make([]*schedule.Incremental, len(dec.Zones))}
}

// SolveZone is the one zone-solve policy, on ZoneProblem(·, ·, zi); the
// blocks come back in city IDs. A zone problem with more than
// maxPairs conflicting demanded pairs (every zone, when maxPairs < 0) is
// packed greedily, without a model: beyond a couple hundred ordering
// variables the branch-and-bound stops paying for itself (see
// DefaultMaxZonePairs). Otherwise the zone's model searches for the minimum
// window in [lo, hi] (lo a sound lower bound, hi 0 = the frame) from hint.
// When the node budget runs out the error is milp.ErrLimit and the solution
// carries the counts spent; what to do then is the caller's.
func (ms *Models) SolveZone(zi int, zp *schedule.Problem, hint, lo, hi, maxPairs int, opts milp.Options) (ZoneSolution, error) {
	if activePairs(zp) > maxPairs {
		gs, err := schedule.Greedy(zp, ms.frame)
		if err != nil {
			return ZoneSolution{}, err
		}
		slices.SortFunc(gs.Assignments, tdma.ByStart)
		return ZoneSolution{Blocks: ms.dec.CityBlocks(zi, gs.Assignments), Window: schedule.GreedyLength(gs), Greedy: true}, nil
	}
	m, cold := ms.zones[zi], true
	var err error
	if m == nil {
		m, err = schedule.NewIncremental(zp, ms.frame)
		ms.zones[zi] = m
	} else {
		cold, err = m.Cover(zp.Demand)
	}
	if err != nil {
		return ZoneSolution{}, err
	}
	win, s, solved, pivots, err := m.MinSlots(zp, hint, lo, hi, opts)
	r := ZoneSolution{Window: win, Solved: solved, Pivots: pivots, Cold: cold}
	if err == nil {
		slices.SortFunc(s.Assignments, tdma.ByStart)
		r.Blocks = ms.dec.CityBlocks(zi, s.Assignments)
	}
	return r, err
}
