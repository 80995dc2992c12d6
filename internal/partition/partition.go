// Package partition scales the exact TDMA planner past paper-size meshes by
// spatial decomposition. Interference is geometrically local, so the conflict
// graph of a large mesh decomposes into near-independent zones: the package
// cuts the topology into square interference zones from the node positions,
// solves each zone's minimum-window scheduling ILP independently (and
// concurrently, on a deterministic worker pool), and stitches the per-zone
// schedules into one global conflict-free frame.
//
// The zone-solve policy lives here once, in Models.SolveZone: the pair gate,
// the per-zone model built on the zone's first exact solve, and its window
// search. MinSlots runs it over fresh models; the admission engine's zoned
// decisions and zoned defragmentation run it over persistent ones.
//
// The stitch is a deterministic list schedule seeded by the zone solutions:
// links are merged in ascending zone-local start order and each is placed at
// its earliest conflict-free interval under the full conflict graph. Within
// one zone that order reproduces the zone's optimal structure (the sweep
// never exceeds a zone's own window); across zones it interleaves the
// locally optimal orderings, and the earliest-fit placement doubles as a
// compaction pass that removes boundary slack. Halo links — links with at
// least one cross-zone conflict, found by exact probes of the conflict
// graph — that end up off their zone-local slot are counted as repairs by
// the outer coordination pass.
//
// The result is bit-identical for any worker count: the per-zone solves are
// pure functions of their subproblem and the stitch consumes them in zone
// order.
package partition

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// Package errors.
var (
	// ErrBadZone reports invalid decomposition parameters.
	ErrBadZone = errors.New("partition: bad zone parameters")
	// ErrInfeasible reports that a zone subproblem or the stitched frame
	// cannot fit the demands.
	ErrInfeasible = errors.New("partition: infeasible")
)

// DefaultMaxZonePairs is the zone-ILP size gate: zones whose subproblem has
// more conflicting active-link pairs — each pair is one binary ordering
// variable in the formulation, so the count is the model size — skip the
// exact search and are scheduled by the greedy coloring. The gate depends
// only on the subproblem, so it is deterministic. The threshold is
// calibrated to where the branch-and-bound stops paying for itself: beyond a
// couple hundred ordering variables a saturated zone exhausts any node budget
// without a feasible incumbent (burning seconds per zone), while the greedy
// coloring finishes in milliseconds. At city scale a dense zone can reach
// thousands of pairs, where even the root LP relaxation is slower than
// colouring the whole zone.
const DefaultMaxZonePairs = 150

// Options configures the partitioned solver.
type Options struct {
	// ZoneSize is the edge length of the square zones in meters. Zero
	// selects an automatic size of three times the longest active link, so
	// a zone spans several hops and two-hop interference rarely reaches
	// beyond the neighbouring zone.
	ZoneSize float64
	// Workers is the number of zone ILPs solved concurrently (0 =
	// GOMAXPROCS). The stitched schedule is bit-identical for any value.
	Workers int
	// MILP bounds each per-zone branch-and-bound search. A zone that
	// exhausts the budget (milp.ErrLimit) falls back to the greedy coloring
	// for that zone instead of failing the whole solve; MaxNodes defaults
	// to 100k per zone.
	MILP milp.Options
}

// Zone is one spatial cell of a decomposition, holding the active links
// whose transmitter lies in the cell.
type Zone struct {
	ID       int
	Col, Row int
	// Links are the zone's active links, ascending. Interior links conflict
	// only with links of the same zone; Halo links have at least one
	// conflict in another zone.
	Links    []topology.LinkID
	Interior []topology.LinkID
	Halo     []topology.LinkID
}

// Decomposition is a spatial cut of a scheduling problem into zones.
type Decomposition struct {
	ZoneSize   float64
	Cols, Rows int
	// Zones holds the non-empty zones in row-major cell order.
	Zones []Zone
	// zoneOf maps each dense link ID to its index in Zones, -1 for links
	// with no demand.
	zoneOf []int
}

// ZoneOf returns the index in Zones of the zone owning link l, or -1 when
// the link carries no demand.
func (d *Decomposition) ZoneOf(l topology.LinkID) int {
	if l < 0 || int(l) >= len(d.zoneOf) {
		return -1
	}
	return d.zoneOf[l]
}

// ZoneSet returns the sorted, deduplicated zone indices owning the given
// links (links outside the decomposition are skipped). It is the zone→lock
// mapping of the sharded admission engine: the zones an admission's demand
// delta touches are exactly the locks the decision must hold, taken in the
// ascending order ZoneSet yields so concurrent admissions cannot deadlock.
func (d *Decomposition) ZoneSet(links []topology.LinkID) []int {
	zones := make([]int, 0, len(links))
	for _, l := range links {
		if zi := d.ZoneOf(l); zi >= 0 {
			zones = append(zones, zi)
		}
	}
	sort.Ints(zones)
	return slices.Compact(zones)
}

// Decompose cuts the problem's active links into square zones of zoneSize
// meters (0 = automatic, see Options.ZoneSize) keyed by the transmitter
// position, and classifies each link as interior or halo by probing the
// conflict graph: a link is halo iff it conflicts with an active link owned
// by another zone. The classification is exact — it uses the same conflict
// graph the schedule must satisfy, not a distance heuristic.
func Decompose(p *schedule.Problem, zoneSize float64) (*Decomposition, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	net := p.Graph.Network()
	active := p.ActiveLinks()
	if !(zoneSize >= 0) || math.IsInf(zoneSize, 1) {
		return nil, fmt.Errorf("%w: zone size %g is not a non-negative finite number", ErrBadZone, zoneSize)
	}
	if zoneSize == 0 {
		zoneSize = autoZoneSize(net, active)
	}
	// Bounding box over the transmitters of active links.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	txOf := make([]topology.Node, len(active))
	for i, l := range active {
		lk, err := net.Link(l)
		if err != nil {
			return nil, err
		}
		nd, err := net.Node(lk.From)
		if err != nil {
			return nil, err
		}
		txOf[i] = nd
		minX = math.Min(minX, nd.X)
		minY = math.Min(minY, nd.Y)
		maxX = math.Max(maxX, nd.X)
		maxY = math.Max(maxY, nd.Y)
	}
	d := &Decomposition{ZoneSize: zoneSize, zoneOf: make([]int, p.Graph.NumVertices())}
	for i := range d.zoneOf {
		d.zoneOf[i] = -1
	}
	if len(active) == 0 {
		return d, nil
	}
	// Cells are keyed row-major, row*Cols + col, which fits an int only while
	// each axis has fewer than 2^31 cells. Zones are the sorted distinct keys,
	// so zone IDs are independent of link iteration order.
	cols, rows := (maxX-minX)/zoneSize, (maxY-minY)/zoneSize
	if !(cols < 1<<31 && rows < 1<<31) {
		return nil, fmt.Errorf("%w: zone size %g cuts the %g x %g m extent into 2^31 or more cells per axis",
			ErrBadZone, zoneSize, maxX-minX, maxY-minY)
	}
	d.Cols, d.Rows = int(cols)+1, int(rows)+1
	cellOf := make([]int, len(active))
	keys := make([]int, 0, len(active))
	seen := make(map[int]int) // cell key -> zone index
	for i := range active {
		key := int((txOf[i].Y-minY)/zoneSize)*d.Cols + int((txOf[i].X-minX)/zoneSize)
		cellOf[i] = key
		if _, ok := seen[key]; !ok {
			seen[key] = -1
			keys = append(keys, key)
		}
	}
	sort.Ints(keys)
	d.Zones = make([]Zone, len(keys))
	for zi, key := range keys {
		seen[key] = zi
		d.Zones[zi] = Zone{ID: zi, Col: key % d.Cols, Row: key / d.Cols}
	}
	for i, l := range active {
		zi := seen[cellOf[i]]
		d.zoneOf[l] = zi
		d.Zones[zi].Links = append(d.Zones[zi].Links, l)
	}
	// Halo classification: probe the conflict graph against active links of
	// other zones only (conflicts with undemanded links cannot affect the
	// schedule).
	for zi := range d.Zones {
		z := &d.Zones[zi]
		for _, l := range z.Links {
			halo := false
			p.Graph.VisitNeighbors(l, func(nb topology.LinkID) bool {
				if zo := d.zoneOf[nb]; zo >= 0 && zo != zi {
					halo = true
					return false
				}
				return true
			})
			if halo {
				z.Halo = append(z.Halo, l)
			} else {
				z.Interior = append(z.Interior, l)
			}
		}
	}
	return d, nil
}

// autoZoneSize picks a zone edge from the topology: three times the longest
// active link, floored at 1 m so degenerate co-located layouts still zone.
func autoZoneSize(net *topology.Network, active []topology.LinkID) float64 {
	longest := 0.0
	for _, l := range active {
		lk, err := net.Link(l)
		if err != nil {
			continue
		}
		if d, err := net.Distance(lk.From, lk.To); err == nil && d > longest {
			longest = d
		}
	}
	if longest <= 0 {
		return 1
	}
	return 3 * longest
}

// Result is the outcome of a partitioned minimum-slots solve.
type Result struct {
	// Schedule is the stitched global conflict-free schedule.
	Schedule *tdma.Schedule
	// WindowSlots is the makespan of the stitched schedule.
	WindowSlots int
	// Zones, InteriorLinks and HaloLinks describe the decomposition.
	Zones         int
	InteriorLinks int
	HaloLinks     int
	// Repairs counts halo links the coordination pass had to move off
	// their zone-local slots to resolve a cross-zone conflict.
	Repairs int
	// ILPsSolved is the total number of integer programs solved across all
	// zone window searches.
	ILPsSolved int
	// GreedyFallbacks counts zones scheduled by the greedy coloring, either
	// because their branch-and-bound budget ran out or because the
	// subproblem exceeded the DefaultMaxZonePairs size gate.
	GreedyFallbacks int
}

// MinSlots is the partitioned counterpart of schedule.MinSlots: it
// decomposes the problem into interference zones, finds each zone's minimum
// window with the exact ILP search (concurrently across zones), and stitches
// the zone schedules into one conflict-free frame. The stitched window is
// near — but not provably equal to — the monolithic optimum; the
// differential tests bound the gap on sizes both paths can solve.
//
// The partitioned path is a throughput planner: slot demands are met
// exactly, but flow delay bounds (Problem.Flows with BoundSlots > 0) only
// steer the zone solves of fully in-zone flows — the stitch re-packs slots
// and does not re-check them; start caps likewise reach only the zone
// solves. Use the monolithic MinSlots when delay bounds must be guaranteed.
//
// The result is deterministic for any Options.Workers value.
func MinSlots(p *schedule.Problem, cfg tdma.FrameConfig, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.DataSlots != p.FrameSlots {
		return nil, fmt.Errorf("%w: frame config has %d slots, problem says %d",
			schedule.ErrBadDemand, cfg.DataSlots, p.FrameSlots)
	}
	dec, err := Decompose(p, opts.ZoneSize)
	if err != nil {
		return nil, err
	}
	reg := obs.Default()
	var (
		obsZones     = reg.Counter("partition.zones")
		obsInterior  = reg.Counter("partition.links_interior")
		obsHalo      = reg.Counter("partition.links_halo")
		obsILPs      = reg.Counter("partition.zone_ilps")
		obsFallbacks = reg.Counter("partition.greedy_fallbacks")
		obsRepairs   = reg.Counter("partition.stitch_repairs")
		obsSolves    = reg.Counter("partition.solves")
		obsSolveMS   = reg.Histogram("partition.zone_solve_ms", 0, 1000, 100)
	)

	milpOpts := opts.MILP
	if milpOpts.MaxNodes == 0 {
		milpOpts.MaxNodes = 100_000
	}

	models := NewModels(len(dec.Zones), cfg)
	sols := make([]ZoneSolution, len(dec.Zones))
	errs := make([]error, len(dec.Zones))
	forEachZone(len(dec.Zones), opts.Workers, func(zi int) {
		start := time.Now()
		zp := ZoneProblem(p, dec, zi)
		sol, err := models.SolveZone(zi, zp, 0, 0, 0, DefaultMaxZonePairs, milpOpts)
		if errors.Is(err, milp.ErrLimit) {
			// Budget exhausted: the greedy coloring (every zone is past a
			// gate of -1 pairs) still yields a valid, if longer, schedule.
			solved := sol.Solved
			sol, err = models.SolveZone(zi, zp, 0, 0, 0, -1, milpOpts)
			sol.Solved = solved
		}
		sols[zi], errs[zi] = sol, err
		obsSolveMS.Observe(float64(time.Since(start).Milliseconds()))
	})

	res := &Result{Zones: len(dec.Zones)}
	var blocks []tdma.Assignment
	for zi, sol := range sols {
		if err := errs[zi]; err != nil {
			z := &dec.Zones[zi]
			if errors.Is(err, schedule.ErrInfeasible) {
				return nil, fmt.Errorf("%w: zone %d (cell %d,%d; %d links): %v",
					ErrInfeasible, zi, z.Col, z.Row, len(z.Links), err)
			}
			return nil, fmt.Errorf("partition: zone %d: %w", zi, err)
		}
		res.ILPsSolved += sol.Solved
		if sol.Greedy {
			res.GreedyFallbacks++
		}
		res.InteriorLinks += len(dec.Zones[zi].Interior)
		res.HaloLinks += len(dec.Zones[zi].Halo)
		blocks = append(blocks, sol.Blocks...)
	}

	sched, repairs, err := stitch(p, dec, blocks, cfg)
	if err != nil {
		return nil, err
	}
	res.Schedule = sched
	res.Repairs = repairs
	res.WindowSlots = schedule.GreedyLength(sched)

	// Defensive verification, mirroring what the monolithic solvers do
	// before returning: the stitched schedule must be conflict-free under
	// the full conflict graph and meet every demand.
	if err := sched.Validate(p.Graph); err != nil {
		return nil, fmt.Errorf("partition: stitched schedule invalid: %w", err)
	}
	for l, d := range p.Demand {
		if got := sched.LinkSlots(l); got < d {
			return nil, fmt.Errorf("%w: stitched link %d got %d slots, demand %d",
				ErrInfeasible, l, got, d)
		}
	}

	obsSolves.Inc()
	obsZones.Add(uint64(res.Zones))
	obsInterior.Add(uint64(res.InteriorLinks))
	obsHalo.Add(uint64(res.HaloLinks))
	obsILPs.Add(uint64(res.ILPsSolved))
	obsFallbacks.Add(uint64(res.GreedyFallbacks))
	obsRepairs.Add(uint64(res.Repairs))
	return res, nil
}

// forEachZone runs fn(0..n-1) on up to workers goroutines (0 = GOMAXPROCS).
// Each index owns its result slot, so the outcome is order-independent.
func forEachZone(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	done := make(chan struct{})
	for g := 0; g < workers; g++ {
		go func() {
			for i := range next {
				fn(i)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for g := 0; g < workers; g++ {
		<-done
	}
}

// stitch merges the zones' blocks — one per demanded link, at its zone-local
// start (the hint) — into one global conflict-free schedule. No single merge
// heuristic dominates — preserving zone slots wins when zones are loosely
// coupled, global re-packing wins when most links are halo — so the stitch
// runs a small deterministic portfolio of first-fit placements (all linear
// sweeps, no integer programming) and keeps the shortest. Every order below
// is total, so the blocks may arrive in any order:
//
//   - hint order: links sorted by zone-local start, each placed at its
//     earliest conflict-free interval. Within one zone this reproduces the
//     zone's structure (never exceeds the zone's own window — every link
//     can fall back to its local slot, so earliest-fit only moves links
//     earlier); across zones it interleaves the locally optimal orderings.
//   - hint-preserving: interior links keep their zone slots verbatim
//     (interior links of different zones never conflict), halo links are
//     coordinated heaviest-first into their hint slot when still free and
//     the earliest free interval otherwise, and a final compaction sweep
//     re-packs everything in start order.
//   - link-ID order: first-fit along the dense link numbering. Link IDs
//     follow the construction order of the topology, which for linear and
//     grid-like layouts approximates a perfect elimination order of the
//     near-interval conflict graph, where greedy coloring is optimal.
//   - heaviest-first: the classic first-fit-decreasing order of the greedy
//     baseline.
//
// Ties go to the earliest candidate in the list above, so the choice is
// deterministic. The repair count reports halo links whose slot in the
// winning schedule differs from their zone-local hint: the links the outer
// coordination pass had to move (or could pull earlier) because of
// cross-zone contention.
func stitch(p *schedule.Problem, dec *Decomposition, entries []tdma.Assignment, cfg tdma.FrameConfig) (*tdma.Schedule, int, error) {
	halo := make(map[topology.LinkID]bool)
	for zi := range dec.Zones {
		for _, l := range dec.Zones[zi].Halo {
			halo[l] = true
		}
	}
	byID := func(a, b tdma.Assignment) int { return int(a.Link - b.Link) }
	var best *tdma.Schedule
	var firstErr error
	consider := func(s *tdma.Schedule, err error) {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if best == nil || schedule.GreedyLength(s) < schedule.GreedyLength(best) {
			best = s
		}
	}
	consider(placeList(p, cfg, entries, tdma.ByStart))
	consider(placeHintPreserve(p, cfg, entries, halo))
	consider(placeList(p, cfg, entries, byID))
	consider(placeList(p, cfg, entries, tdma.ByDemand))
	if best == nil {
		return nil, 0, firstErr
	}
	repairs := 0
	for _, e := range entries {
		if as := best.LinkAssignments(e.Link); halo[e.Link] && len(as) > 0 && as[0].Start != e.Start {
			repairs++
		}
	}
	return best, repairs, nil
}

// placeList first-fit places a copy of the entries in the given order: each
// link's block goes to the earliest interval that avoids every conflicting
// block placed before it.
func placeList(p *schedule.Problem, cfg tdma.FrameConfig, entries []tdma.Assignment, order func(a, b tdma.Assignment) int) (*tdma.Schedule, error) {
	blocks := slices.Clone(entries)
	slices.SortFunc(blocks, order)
	fits := tdma.NewPacking(p.Graph).Repack(blocks, func(topology.LinkID, int) int { return p.FrameSlots })
	if fits < len(blocks) {
		return nil, fmt.Errorf("%w: link %d (demand %d) does not fit in %d slots after stitching",
			ErrInfeasible, blocks[fits].Link, blocks[fits].Length, p.FrameSlots)
	}
	out, err := tdma.NewSchedule(cfg)
	if err != nil {
		return nil, err
	}
	if err := out.SetAssignments(blocks); err != nil {
		return nil, err
	}
	return out, nil
}

// placeHintPreserve keeps interior links on their zone-local slots,
// coordinates halo links heaviest-first (hint slot when free, earliest fit
// otherwise), then compacts the union with a start-order re-pack: every link
// can fall back to its current slot, so the sweep never grows the makespan.
func placeHintPreserve(p *schedule.Problem, cfg tdma.FrameConfig, entries []tdma.Assignment, halo map[topology.LinkID]bool) (*tdma.Schedule, error) {
	pk := tdma.NewPacking(p.Graph)
	placed := make([]tdma.Assignment, 0, len(entries))
	var halos []tdma.Assignment
	for _, e := range entries {
		if halo[e.Link] {
			halos = append(halos, e)
			continue
		}
		pk.Add(e)
		placed = append(placed, e)
	}
	slices.SortFunc(halos, tdma.ByDemand)
	for _, h := range halos {
		if !pk.Free(h) {
			if h.Start = pk.FirstFit(h.Link, h.Length, p.FrameSlots, nil); h.Start < 0 {
				return nil, fmt.Errorf("%w: halo link %d (demand %d) does not fit in %d slots",
					ErrInfeasible, h.Link, h.Length, p.FrameSlots)
			}
		}
		pk.Add(h)
		placed = append(placed, h)
	}
	return placeList(p, cfg, placed, tdma.ByStart)
}
