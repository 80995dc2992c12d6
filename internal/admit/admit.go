// Package admit is the long-lived admission-control engine: it holds the
// live TDMA schedule of a serving mesh and answers a stream of Admit/Release
// calls by incremental repair instead of from-scratch re-planning. Four
// tiers, cheapest first:
//
//   - Fast: pure first-fit placement of the new flow's slots into the free
//     space of the current schedule window, checked against a per-link
//     interval index — O(conflict degree), no solver. Fill-in only: the
//     window never grows on this tier, so every fastpath admit keeps the
//     incumbent window exact.
//   - Witness: per touched zone, the flows' paths order its links
//     path-major and Bellman-Ford turns the order into a window, stitched
//     when it fits the cap. It runs where no class start cap binds, and a
//     zone it does not decide goes on to the exact search.
//   - Warm: re-solve of a persistent, mutation-driven ILP model
//     (schedule.Incremental) hinted at the incumbent window; on the seed-42
//     benchmark a slow city_churn decision solves ~16 integer programs for
//     ~280 dual pivots.
//   - Cold: the new demand wakes a link the model has never carried, so the
//     model had to be built or grown before the solve
//     (schedule.Incremental.Cover). A model only ever grows, so cold admits
//     become rarer as the engine warms up.
//
// Rejections are always exact-search verdicts (the fast and witness tiers
// only admit), so while every search stays within its node budget the
// engine's accept/reject answers match a cold schedule.MinSlots re-plan —
// the differential tests pin this. In zoned mode (city scale) the engine
// re-solves only the zones an admission touches and first-fits their blocks
// back against the rest of the schedule; zoned verdicts are conservative, as
// for the partitioned planner.
//
// A blown node budget always ends in a verdict. Admission asks whether *a*
// conflict-free schedule fits the window cap, so when a zone's exact search
// runs out of nodes under a live context the zone's demand, laid out in
// schedule.Greedy's order, is first-fitted around the live schedule by the
// same stitch as any zone's layout: it admits when every block fits the cap
// and the class deadlines, and is a conservative rejection otherwise.
//
// # One decision path
//
// Admit, AdmitBatch and the preemption retry all run the same routine,
// decide, over a group of one or more flows, on every engine, and every
// solve goes through the zone planner of internal/partition. A monolithic
// engine is the engine whose decomposition is one zone holding every link,
// with no pair gate. One rule, keyed on the decomposition having one zone,
// keeps that zone exact: its exact solver layout replaces the live schedule
// verbatim (a first-fit re-stitch would move decisions), and while no
// release, eviction, witness or greedy solve or defrag swap has
// intervened, the incumbent window is the lower bound of its next search. A
// greedy layout past the pair gate, which only a zoned engine with one zone
// can reach, ignores the window cap and is stitched like any zone's.
//
// Lock hierarchy, strictly outside-in:
//
//	zoneMu[i] < zoneMu[j] for i < j  <  e.mu
//
// A decision takes the zone locks of every zone its flows' paths touch, in
// ascending order, and only then e.mu; e.mu is never held while acquiring a
// zone lock, so lock-order cycles cannot form. The zone locks freeze the
// demand (and class totals) of the locked zones' links and guard their
// solver models for the whole decision: every demand write holds the link's
// zone lock and e.mu. e.mu alone guards the live schedule, the flow table
// and the tallies. decide holds e.mu through the
// screens and the fastpath, releases it around each solve — so admissions in
// disjoint zones solve in parallel and readers never wait for a solver — and
// re-takes it to stitch and commit.
//
// Invariant: whenever e.mu is released, Engine.Check holds, and gen has moved
// if the schedule or the demand did. A multi-zone decision therefore undoes
// the trial stitch of the zones solved so far before it releases e.mu for the
// next zone's solve; only the last zone's stitch is kept.
//
// Preemption (Config.Preempt) needs no mode of its own: a guaranteed-class
// arrival on a preemptive engine takes every zone lock, so no other
// decision or release runs while it evicts, retries and — when no eviction
// set admits the arrival — restores its whole-state snapshot.
package admit

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// ErrUnknownFlow reports a Release of a flow ID the engine is not serving.
var ErrUnknownFlow = errors.New("admit: unknown flow")

// ErrBadFlow reports a malformed admission request.
var ErrBadFlow = errors.New("admit: bad flow")

// Tier identifies which repair tier decided an admission.
type Tier int

const (
	// TierNone marks decisions that needed no tier: structurally impossible
	// requests (per-link demand beyond the window cap) rejected up front.
	TierNone Tier = iota
	// TierFast is first-fit placement into the current window, no solver.
	TierFast
	// TierWarm is a re-solve of the persistent incremental ILP model.
	TierWarm
	// TierCold is a model rebuild (support growth) followed by a solve.
	TierCold
	// TierWitness is a path-major witness in every touched zone, no solver.
	TierWitness
)

func (t Tier) String() string {
	switch t {
	case TierFast:
		return "fast"
	case TierWarm:
		return "warm"
	case TierCold:
		return "cold"
	case TierWitness:
		return "witness"
	default:
		return "none"
	}
}

// FlowID names an admitted flow for later release.
type FlowID string

// Flow is an admission request: Slots[i] data slots per frame on link
// Path[i]. A link appearing twice contributes the sum of its entries.
// Class is the flow's 802.16 service class; the zero value (best effort)
// reproduces the engine's class-oblivious behavior exactly.
type Flow struct {
	ID    FlowID
	Path  []topology.LinkID
	Slots []int
	Class Class
}

// demandOf folds the flows into one per-link slot map.
func demandOf(flows ...Flow) map[topology.LinkID]int {
	n := 0
	for _, f := range flows {
		n += len(f.Path)
	}
	d := make(map[topology.LinkID]int, n)
	for _, f := range flows {
		for i, l := range f.Path {
			d[l] += f.Slots[i]
		}
	}
	return d
}

// Decision reports the outcome of one Admit call.
type Decision struct {
	Admitted bool
	Tier     Tier
	// Window is the schedule makespan in slots after the call.
	Window int
	// Solved and Pivots count the integer programs and simplex pivots the
	// decision spent (zero on the fast tier).
	Solved int
	Pivots int
	// Latency is the in-engine decision time.
	Latency time.Duration
	// Preempted lists the flows evicted to make this admission possible
	// (Config.Preempt). Non-empty only on admitted guaranteed-class
	// decisions; the evicted flows are no longer served and must not be
	// released again.
	Preempted []FlowID
}

// Stats is a snapshot of the engine's lifetime tallies.
type Stats struct {
	Admitted, Rejected    uint64
	Fast, Warm, Cold      uint64
	Releases, Compactions uint64
	ZoneGreedy            uint64
	WarmPivots            uint64
	// Batched counts admissions decided jointly: calls whose verdict was
	// recovered from a shared solve of a batch of two or more arrivals.
	Batched uint64
	// Defrags counts background solver-driven re-packs swapped into the live
	// schedule; DefragSlots is the total window shrinkage they bought.
	Defrags     uint64
	DefragSlots uint64
	// MemoHits is always zero: the engine keeps no memo of solved demand
	// vectors. It stays because the repository benchmark (benchmark/serving.go)
	// still reads it.
	MemoHits uint64
	// Witness counts TierWitness admissions (see the package comment).
	Witness uint64
	// Satisficed counts admissions whose blown-budget witness — the zone's
	// demand in greedy order — fitted around the live schedule.
	Satisficed uint64
	// BudgetRejected is always zero: a blown budget always ends in a
	// verdict. It stays because the repository benchmark
	// (benchmark/serving.go) still reads it.
	BudgetRejected uint64
	// PreemptAttempts counts guaranteed-class rejections that entered the
	// preemption search; PreemptAdmits the ones it converted to admissions;
	// PreemptEvicted the BE/nrtPS flows evicted across those admissions.
	PreemptAttempts uint64
	PreemptAdmits   uint64
	PreemptEvicted  uint64
}

// Config parameterizes an Engine.
type Config struct {
	// Graph is the link conflict graph; Frame the TDMA frame layout.
	Graph *conflict.Graph
	Frame tdma.FrameConfig
	// MaxWindow caps the schedule makespan in slots (0 = all data slots).
	// Admissions that cannot fit within it are rejected.
	MaxWindow int
	// UGSDeadline, when positive, requires every link's aggregate UGS slots
	// to complete within the first UGSDeadline slots of the frame — the
	// periodic-grant region of the 802.16 frame map. RtPSWindow, when
	// positive, requires each link's UGS+rtPS slots to complete within the
	// first RtPSWindow slots (at least UGSDeadline when both are set).
	// Zero disables the deadline machinery entirely; classes then only
	// order preemption, and the engine's verdicts and schedules are
	// byte-identical to the class-oblivious ones.
	UGSDeadline int
	RtPSWindow  int
	// Preempt lets a guaranteed-class (UGS/rtPS) arrival that fails every
	// repair tier evict the cheapest conflict-relevant set of BE/nrtPS
	// flows and retry. Evictions are reported in Decision.Preempted and the
	// evicted flows are no longer served. Non-guaranteed arrivals never
	// preempt, and guaranteed flows are never victims. Such an arrival
	// locks every zone, so its evict/retry/rollback loop sees no other
	// decision.
	Preempt bool
	// MILP configures the branch-and-bound solves. Admit overrides
	// Interrupt with the call context's Done channel.
	MILP milp.Options
	// BudgetRejects is ignored: a blown node budget always ends in a
	// verdict (see the package comment). It stays because the repository
	// benchmark (benchmark/serving.go) still sets it.
	BudgetRejects bool
	// Zoned switches to per-zone incremental models over a spatial
	// decomposition of ZoneSize meters (0 = automatic): city-scale mode.
	Zoned    bool
	ZoneSize float64
	// Registry receives admit.* counters and the decision-latency
	// histogram; nil disables metrics.
	Registry *obs.Registry
}

// defaultCompactEvery releases pass between re-packs of fragmented slots.
const defaultCompactEvery = 64

// Engine is the long-lived admission engine. All methods are safe for
// concurrent use: a decision locks the zones its flows touch (a monolithic
// engine has one), so the solver work of admissions in disjoint zones runs
// in parallel and just the screens, the fastpath and the stitch — commit of
// the shared schedule and tallies — serialize on e.mu. See the package
// comment for the lock hierarchy.
type Engine struct {
	cfg    Config
	maxWin int
	// maxPairs gates zone ILP size as in internal/partition; larger zones
	// fall back to greedy packing. A monolithic engine has no gate.
	maxPairs int

	// mu is the stitch lock: it guards the live schedule, the aggregate
	// demand, the flow table and the tallies. The solver phase of a decision
	// runs outside it, under the zone locks.
	mu sync.Mutex
	// pack is the live schedule, held only in its placement-indexed form;
	// Snapshot and Check flatten it into a tdma.Schedule on demand.
	pack   *tdma.Packing
	demand map[topology.LinkID]int
	flows  map[FlowID]Flow
	// cls tracks, per link, the aggregate guaranteed-class slots:
	// [0] UGS, [1] rtPS. Maintained only when classed() — a deadline is
	// configured — and guarded like demand.
	cls map[topology.LinkID][2]int
	// gen counts committed mutations of the live schedule or demand (admit,
	// release, eviction, rollback, compaction, defrag swap). Background
	// defragmentation snapshots it and discards its candidate when the
	// schedule moved underneath the solve.
	gen uint64
	// solverDirty is set whenever the incumbent window stops being a proven
	// minimum (release, eviction, witness or greedy solve, defrag swap),
	// so a one-zone solve may not use it as a lower bound.
	solverDirty bool
	releases    int
	// compactEvery is defaultCompactEvery; tests set it after New
	// (non-positive = never compact).
	compactEvery int
	// solveHook, when set, runs as a decision lets go of e.mu for a solve
	// (its zone locks still held). Test hook.
	solveHook func()

	// dec is the static decomposition over the full link set — one zone on
	// a monolithic engine. zoneMu has one lock per zone and allZones lists
	// them ascending. Zone i's model in models — built over the links that
	// ever carried demand there (a dense city zone can hold tens of
	// thousands of conflicting link pairs, so a model over all zone links
	// would be intractable; the links that ever carry demand are few) — and
	// the demand entries of zone i's links are guarded by zoneMu[i] (demand
	// writes additionally hold e.mu).
	dec      *partition.Decomposition
	zoneMu   []sync.Mutex
	allZones []int
	models   *partition.Models

	// dfMu serializes background re-packs (one at a time); dfModels are
	// private so a defrag solve never touches the decision-path models.
	dfMu     sync.Mutex
	dfModels *partition.Models

	stats Stats

	cFast, cWarm, cCold, cReject *obs.Counter
	cRelease, cCompact           *obs.Counter
	cZoneGreedy, cWarmPivots     *obs.Counter
	cSatisfice, cWitness         *obs.Counter
	cDefrag, cDefragSlots        *obs.Counter
	cPreemptAttempt              *obs.Counter
	cPreemptAdmit, cPreemptEvict *obs.Counter
	hDecision, hCompact          *obs.Histogram
	hBatch, hLockWait            *obs.Histogram
	gQueue                       *obs.Gauge
}

// New builds an engine serving an empty schedule.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: nil conflict graph", ErrBadFlow)
	}
	if err := cfg.Frame.Validate(); err != nil {
		return nil, err
	}
	maxWin := cfg.MaxWindow
	if maxWin <= 0 || maxWin > cfg.Frame.DataSlots {
		maxWin = cfg.Frame.DataSlots
	}
	if cfg.UGSDeadline < 0 || cfg.RtPSWindow < 0 {
		return nil, fmt.Errorf("%w: negative class deadline (ugs %d, rtps %d)",
			ErrBadFlow, cfg.UGSDeadline, cfg.RtPSWindow)
	}
	if cfg.UGSDeadline > 0 && cfg.RtPSWindow > 0 && cfg.RtPSWindow < cfg.UGSDeadline {
		return nil, fmt.Errorf("%w: rtPS window %d below UGS deadline %d",
			ErrBadFlow, cfg.RtPSWindow, cfg.UGSDeadline)
	}
	e := &Engine{
		cfg:          cfg,
		maxWin:       maxWin,
		maxPairs:     partition.DefaultMaxZonePairs,
		compactEvery: defaultCompactEvery,
		pack:         tdma.NewPacking(cfg.Graph),
		demand:       make(map[topology.LinkID]int),
		flows:        make(map[FlowID]Flow),
		cls:          make(map[topology.LinkID][2]int),
	}
	// Static zoning over the full link universe: decompose a synthetic
	// all-active problem so every link has a zone for the engine's lifetime,
	// whatever the demand pattern does. A monolithic engine's zone is wider
	// than the mesh, so it gets one zone holding every link.
	synth := &schedule.Problem{
		Graph:      cfg.Graph,
		Demand:     make(map[topology.LinkID]int, cfg.Graph.NumVertices()),
		FrameSlots: cfg.Frame.DataSlots,
	}
	for l := 0; l < cfg.Graph.NumVertices(); l++ {
		synth.Demand[topology.LinkID(l)] = 1
	}
	size := cfg.ZoneSize
	if !cfg.Zoned {
		size, e.maxPairs = math.MaxFloat64, math.MaxInt
	}
	dec, err := partition.Decompose(synth, size)
	if err != nil {
		return nil, err
	}
	e.dec = dec
	zones := len(dec.Zones)
	e.zoneMu = make([]sync.Mutex, zones)
	e.models = partition.NewModels(dec, cfg.Frame)
	e.dfModels = partition.NewModels(dec, cfg.Frame)
	e.allZones = make([]int, zones)
	for i := range e.allZones {
		e.allZones[i] = i
	}
	if r := cfg.Registry; r != nil {
		e.cFast = r.Counter("admit.fastpath_hit")
		e.cWarm = r.Counter("admit.warm_hit")
		e.cCold = r.Counter("admit.cold_hit")
		e.cReject = r.Counter("admit.reject")
		e.cRelease = r.Counter("admit.release")
		e.cCompact = r.Counter("admit.compact")
		e.cZoneGreedy = r.Counter("admit.zone_greedy")
		e.cWarmPivots = r.Counter("admit.warm_pivots")
		e.cSatisfice = r.Counter("admit.satisfice")
		e.cWitness = r.Counter("admit.witness_hit")
		e.cDefrag = r.Counter("admit.defrag")
		e.cDefragSlots = r.Counter("admit.defrag_win_slots")
		e.cPreemptAttempt = r.Counter("admit.preempt_attempt")
		e.cPreemptAdmit = r.Counter("admit.preempt_admit")
		e.cPreemptEvict = r.Counter("admit.preempt_evict")
		e.hDecision = r.Histogram("admit.decision_us", 0, 100_000, 50)
		e.hCompact = r.Histogram("admit.compact_us", 0, 100_000, 50)
		e.hBatch = r.Histogram("admit.batch_size", 0, 64, 32)
		e.hLockWait = r.Histogram("admit.lock_wait_us", 0, 100_000, 50)
		e.gQueue = r.Gauge("admit.queue_depth")
	}
	return e, nil
}

// Window returns the current schedule makespan in slots.
//
// Locking note: e.mu alone is sufficient for this and the other read
// accessors. Every mutation of reader-visible state — e.pack, e.demand,
// e.flows, e.cls, e.stats — happens with e.mu held: a decision mutates only
// solver state (the zone models, guarded by the zone locks) during its
// unlocked solve phases, and screens, stitches and commits under e.mu.
// TestShardedSnapshotRace hammers these accessors against
// ServeConcurrent under the race detector to keep it that way.
func (e *Engine) Window() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pack.Makespan()
}

// NumFlows returns the number of flows currently admitted.
func (e *Engine) NumFlows() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.flows)
}

// Stats returns a snapshot of the lifetime tallies.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Snapshot returns the live schedule as a fresh tdma.Schedule, blocks by
// link then start. It is flattened under e.mu (see the locking note on
// Window), so it is a consistent point-in-time schedule even while
// concurrent admissions and background defrag run.
func (e *Engine) Snapshot() *tdma.Schedule {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &tdma.Schedule{Config: e.cfg.Frame, Assignments: e.pack.Assignments()}
}

func (f Flow) validate(numLinks, frameSlots int) error {
	if f.ID == "" {
		return fmt.Errorf("%w: empty flow ID", ErrBadFlow)
	}
	if len(f.Path) == 0 || len(f.Path) != len(f.Slots) {
		return fmt.Errorf("%w: flow %s has %d links, %d slot counts",
			ErrBadFlow, f.ID, len(f.Path), len(f.Slots))
	}
	if f.Class > ClassUGS {
		return fmt.Errorf("%w: flow %s has unknown class %d", ErrBadFlow, f.ID, f.Class)
	}
	// A link may appear on the path more than once (a route crossing the
	// same contention domain twice); the tiers all see the FOLDED per-link
	// demand (see demandOf). Folded demand beyond the frame can never be
	// served in any window, and unlike a single oversized entry — which the
	// structural cap screens per tier — the individual entries of a
	// duplicate-link flow can each look harmless, so the mismatch is
	// rejected here where the request is still a request.
	for i, l := range f.Path {
		if l < 0 || int(l) >= numLinks {
			return fmt.Errorf("%w: flow %s link %d outside graph", ErrBadFlow, f.ID, l)
		}
		if f.Slots[i] <= 0 {
			return fmt.Errorf("%w: flow %s slot count %d on link %d",
				ErrBadFlow, f.ID, f.Slots[i], l)
		}
		total := 0
		for j, m := range f.Path {
			if m == l {
				total += f.Slots[j]
			}
		}
		if total > frameSlots {
			return fmt.Errorf("%w: flow %s folded demand %d on link %d exceeds the %d-slot frame",
				ErrBadFlow, f.ID, total, l, frameSlots)
		}
	}
	return nil
}

// Check verifies the engine's internal invariants: the schedule stays
// within the window cap, is conflict-free and carries exactly the aggregate
// demand; on a classed engine the class totals mirror the flow table and
// every link's guaranteed prefixes are covered by their deadlines. Test hook.
func (e *Engine) Check() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if win := e.pack.Makespan(); win > e.maxWin {
		return fmt.Errorf("admit: window %d beyond cap %d", win, e.maxWin)
	}
	s := &tdma.Schedule{Config: e.cfg.Frame, Assignments: e.pack.Assignments()}
	if err := s.Validate(e.cfg.Graph); err != nil {
		return err
	}
	if err := carries(s.Assignments, e.demand); err != nil {
		return err
	}
	if !e.classed() {
		return nil
	}
	want := make(map[topology.LinkID][2]int)
	for _, f := range e.flows {
		classAdd(want, f, 1)
	}
	if !maps.Equal(want, e.cls) {
		return fmt.Errorf("admit: class totals %v, flows say %v", e.cls, want)
	}
	for l, v := range e.cls {
		if e.uncovered(e.pack, l, v) {
			return fmt.Errorf("admit: link %d misses a class deadline (UGS/rtPS slots %v)", l, v)
		}
	}
	return nil
}

// carries reports whether the blocks hold exactly the demand: each link's
// slots sum to its demand entry and no other link has any.
func carries(blocks []tdma.Assignment, demand map[topology.LinkID]int) error {
	slots := make(map[topology.LinkID]int, len(demand))
	for _, a := range blocks {
		slots[a.Link] += a.Length
	}
	for l, d := range demand {
		if slots[l] != d {
			return fmt.Errorf("admit: link %d carries %d slots, demand %d", l, slots[l], d)
		}
	}
	for l, n := range slots {
		if demand[l] != n {
			return fmt.Errorf("admit: link %d carries %d slots, demand %d", l, n, demand[l])
		}
	}
	return nil
}
