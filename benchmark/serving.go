package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"wimesh/internal/admit"
	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// classShare is one component of a serving workload's service-class mix.
type classShare struct {
	Class        string  `json:"class"`
	Weight       float64 `json:"weight"`
	SlotsPerLink int     `json:"slots_per_link"`
}

// servingParams sizes a serving workload. One run replays Episodes
// independent call sequences, each against a fresh engine: the work is a
// function of the parameters and the seed alone, and the number of expensive
// decisions a run sees is large enough that it varies little from seed to
// seed.
type servingParams struct {
	Mesh        string       `json:"mesh"`
	Zoned       bool         `json:"zoned"`
	ZoneSize    float64      `json:"zone_size_m"`
	FrameSlots  int          `json:"frame_slots"`
	MaxWindow   int          `json:"max_window"`
	ToGateway   bool         `json:"to_gateway"`
	ClassMix    []classShare `json:"class_mix,omitempty"`
	UGSDeadline int          `json:"ugs_deadline"`
	RtPSWindow  int          `json:"rtps_window"`
	Preempt     bool         `json:"preempt"`
	Rate        float64      `json:"arrivals_per_s"`
	HoldingMS   float64      `json:"holding_ms"`
	Calls       int          `json:"calls_per_episode"`
	Episodes    int          `json:"episodes"`
	Budget      int          `json:"node_budget"`
}

// callEvent is one arrival or departure, at virtual time At from the start
// of its episode.
type callEvent struct {
	At     time.Duration
	Arrive bool
	Flow   admit.Flow
}

// generateCalls draws one episode: random shortest-path routes (all to the
// gateway with ToGateway) and a class drawn from the mix, every draw from one
// seeded source in a fixed order. Calls arrive evenly spaced and each holds
// for the same time, so the offered load is constant and what changes with
// the seed is where the calls go, not how many are up at once: with Poisson
// arrivals and exponential holding the same sizes gave twice the spread of
// decisions/s from seed to seed (17% against 8% on village_churn). An
// unroutable or gateway-originated draw is redrawn, so an episode always
// offers exactly Calls calls.
func generateCalls(topo *topology.Network, p servingParams, seed int64, episode int) ([]callEvent, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, episode)))
	n := topo.NumNodes()
	gw, hasGW := topo.Gateway()
	if p.ToGateway && !hasGW {
		return nil, fmt.Errorf("generate: mesh %s has no gateway", p.Mesh)
	}
	var mixTotal float64
	classes := make([]admit.Class, len(p.ClassMix))
	for i, cs := range p.ClassMix {
		c, err := admit.ParseClass(cs.Class)
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		classes[i] = c
		mixTotal += cs.Weight
	}
	interval := time.Duration(float64(time.Second) / p.Rate)
	hold := time.Duration(p.HoldingMS * float64(time.Millisecond))
	events := make([]callEvent, 0, 2*p.Calls)
	var now time.Duration
	for i := 0; i < p.Calls; i++ {
		now += interval
		class, spl := admit.ClassBE, 1
		if len(p.ClassMix) > 0 {
			x := rng.Float64() * mixTotal
			k := len(p.ClassMix) - 1
			for j, cs := range p.ClassMix {
				if x < cs.Weight {
					k = j
					break
				}
				x -= cs.Weight
			}
			class, spl = classes[k], p.ClassMix[k].SlotsPerLink
		}
		var path topology.Path
		for len(path) == 0 {
			src := topology.NodeID(rng.Intn(n))
			dst := topology.NodeID(rng.Intn(n))
			if p.ToGateway {
				dst = gw
			}
			if src == dst {
				continue
			}
			var err error
			if path, err = topo.ShortestPath(src, dst); err != nil {
				path = nil
			}
		}
		slots := make([]int, len(path))
		for j := range slots {
			slots[j] = spl
		}
		f := admit.Flow{ID: admit.FlowID(fmt.Sprintf("e%d-c%d", episode, i)), Path: path, Slots: slots, Class: class}
		events = append(events,
			callEvent{At: now, Arrive: true, Flow: f},
			callEvent{At: now + hold, Flow: admit.Flow{ID: f.ID}})
	}
	// Time order; at equal times departures first (they free capacity),
	// then generation order.
	slices.SortStableFunc(events, func(a, b callEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(btoi(a.Arrive), btoi(b.Arrive))
	})
	return events, nil
}

// servingSetup is everything built before the timed region.
type servingSetup struct {
	topo     *topology.Network
	graph    *conflict.Graph
	episodes [][]callEvent
	cfg      admit.Config

	topoDur, conflictDur, generateDur, newDur time.Duration
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func buildMesh(name string) (*topology.Network, error) {
	var w, h int
	if n, _ := fmt.Sscanf(name, "grid%dx%d", &w, &h); n == 2 {
		return topology.Grid(w, h, 100)
	}
	var n int
	if k, _ := fmt.Sscanf(name, "disk%d", &n); k == 1 && n >= 2 {
		// The R18-R21 city: constant density (1000 nodes on 2400 m), range
		// 130 m. The geometry is a parameter of the workload, not an input
		// drawn from -seed.
		return topology.RandomDisk(n, math.Round(2400*math.Sqrt(float64(n)/1000)), 130, 42)
	}
	return nil, fmt.Errorf("unknown mesh %q", name)
}

// setupServing builds mesh, conflict graph, the episodes' call sequences and
// one engine (discarded: it only times admit.New; every episode gets its
// own).
func setupServing(p servingParams, seed int64, episodes int, tr *tracer) (*servingSetup, error) {
	s := &servingSetup{}
	root := tr.begin("setup", "setup", 0)
	defer tr.end(root)

	var err error
	s.topoDur, err = tr.timed("topology.build", "setup", root, func() (err error) {
		s.topo, err = buildMesh(p.Mesh)
		return
	})
	if err != nil {
		return nil, err
	}
	s.conflictDur, err = tr.timed("conflict.Build", "setup", root, func() (err error) {
		s.graph, err = conflict.Build(s.topo, conflict.Options{Model: conflict.ModelTwoHop})
		return
	})
	if err != nil {
		return nil, err
	}
	s.generateDur, err = tr.timed("workload.generate", "setup", root, func() error {
		for ep := 0; ep < episodes; ep++ {
			ev, err := generateCalls(s.topo, p, seed, ep)
			if err != nil {
				return err
			}
			s.episodes = append(s.episodes, ev)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	s.cfg = admit.Config{
		Graph:     s.graph,
		Frame:     tdma.FrameConfig{FrameDuration: time.Duration(p.FrameSlots) * 1250 * time.Microsecond, DataSlots: p.FrameSlots},
		MaxWindow: p.MaxWindow,
		// A node budget and one worker, never a TimeLimit: which solves
		// finish is then a property of the input, not of the host.
		MILP:          milp.Options{MaxNodes: p.Budget, Workers: 1},
		BudgetRejects: true,
		Zoned:         p.Zoned,
		ZoneSize:      p.ZoneSize,
		UGSDeadline:   p.UGSDeadline,
		RtPSWindow:    p.RtPSWindow,
		Preempt:       p.Preempt,
	}
	s.newDur, err = tr.timed("admit.New", "setup", root, func() error {
		_, err := admit.New(s.cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *servingSetup) total() time.Duration {
	return s.topoDur + s.conflictDur + s.generateDur + s.newDur
}

// decision is the harness's record of one Admit call.
type decision struct {
	took     time.Duration
	tier     admit.Tier
	admitted bool
	solved   int
	pivots   int
}

// episodeResult is one replayed episode.
type episodeResult struct {
	decisions []decision
	releases  []time.Duration
	work      []served // arrivals and releases in event order, for openLoop
	replay    time.Duration
	stats     admit.Stats
	window    int
	errors    int      // Admit or Release calls that returned an error
	gate      []string // correctness-gate misses
	// sig folds every decision's verdict, tier, solve and pivot count:
	// equal inputs must give equal signatures whatever the host does.
	sig uint64
	// busy is the schedule the engine served right after the last arrival
	// (by the end of the replay every call has left again). The engine
	// itself is dropped, so a run never holds more than one.
	busy *tdma.Schedule
}

func (r *episodeResult) wall() time.Duration { return r.replay }
func (r *episodeResult) signature() uint64   { return r.sig }

// serveEpisode replays one episode against a fresh engine, closed loop with
// one client, timing every Admit and Release from outside. The correctness
// gate runs twice: after the last arrival, when the schedule is at its
// fullest, and at the end.
func serveEpisode(s *servingSetup, events []callEvent, reg *obs.Registry, tr *tracer) (*episodeResult, error) {
	cfg := s.cfg
	cfg.Registry = reg
	eng, err := admit.New(cfg)
	if err != nil {
		return nil, err
	}
	res := &episodeResult{}
	ctx := context.Background()
	live := make(map[admit.FlowID]bool)
	gate := func(when string) *tdma.Schedule {
		if err := eng.Check(); err != nil {
			res.gate = append(res.gate, fmt.Sprintf("%s: Engine.Check: %v", when, err))
		}
		snap := eng.Snapshot()
		if err := snap.Validate(s.graph); err != nil {
			res.gate = append(res.gate, fmt.Sprintf("%s: Snapshot.Validate: %v", when, err))
		}
		if got := eng.NumFlows(); got != len(live) {
			res.gate = append(res.gate, fmt.Sprintf("%s: engine serves %d flows, harness admitted %d", when, got, len(live)))
		}
		return snap
	}
	arrivals := len(events) / 2
	var gateTime time.Duration
	wallStart := time.Now()
	for _, ev := range events {
		req := string(ev.Flow.ID)
		if !ev.Arrive {
			if !live[ev.Flow.ID] {
				continue
			}
			root := tr.begin("event.depart", req, 0)
			id := tr.begin("admit.Release", req, root)
			start := time.Now()
			err := eng.Release(ev.Flow.ID)
			took := time.Since(start)
			tr.end(id)
			tr.end(root)
			if err != nil {
				res.errors++
			}
			delete(live, ev.Flow.ID)
			res.releases = append(res.releases, took)
			res.work = append(res.work, served{Due: ev.At, Service: took})
			continue
		}
		root := tr.begin("event.arrive", req, 0)
		id := tr.begin("admit.Admit", req, root)
		start := time.Now()
		dec, err := eng.Admit(ctx, ev.Flow)
		took := time.Since(start)
		tr.end(id)
		if err != nil {
			res.errors++
		}
		if dec.Admitted {
			live[ev.Flow.ID] = true
			for _, victim := range dec.Preempted {
				delete(live, victim)
			}
		}
		tr.end(root)
		res.decisions = append(res.decisions, decision{
			took: took, tier: dec.Tier, admitted: dec.Admitted,
			solved: dec.Solved, pivots: dec.Pivots,
		})
		res.work = append(res.work, served{Due: ev.At, Service: took, Counted: true})
		res.sig = fold(res.sig, btoi(dec.Admitted), int(dec.Tier), dec.Solved, dec.Pivots, len(dec.Preempted))
		if len(res.decisions) == arrivals {
			start := time.Now()
			res.busy = gate("after the last arrival")
			res.window = eng.Window()
			gateTime = time.Since(start)
		}
	}
	res.replay = time.Since(wallStart) - gateTime
	res.stats = eng.Stats()
	gate("at the end")
	return res, nil
}

// runServing is the body of the three serving workloads.
func runServing(p servingParams, rs runSpec) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var s *servingSetup
	var err error
	out.setups, err = repeatSetup(rs, func(tr *tracer) (time.Duration, error) {
		if s, err = setupServing(p, rs.seed, rs.planned(p.Episodes), tr); err != nil {
			return 0, err
		}
		return s.total(), nil
	})
	if err != nil {
		return nil, err
	}
	measured, reg, err := twoPasses(rs, out, len(s.episodes),
		func(n int, guard time.Duration, reg *obs.Registry, tr *tracer) (done []*episodeResult, truncated bool, err error) {
			var spent time.Duration
			for _, events := range s.episodes[:n] {
				if len(done) > 0 && spent >= guard {
					return done, true, nil
				}
				r, err := serveEpisode(s, events, reg, tr)
				if err != nil {
					return nil, false, err
				}
				spent += r.replay
				done = append(done, r)
			}
			return done, false, nil
		})
	if err != nil {
		return nil, err
	}

	var work []served
	var offset time.Duration
	var budgetRejects uint64
	admitted := 0
	for i, r := range measured {
		out.failed += r.errors
		for _, g := range r.gate {
			out.gate = append(out.gate, fmt.Sprintf("episode %d: %s", i, g))
		}
		for _, d := range r.decisions {
			out.ops = append(out.ops, d.took)
			if d.admitted {
				admitted++
			}
		}
		// Episodes follow one another on the open-loop clock, each starting
		// when the previous one's last event was due.
		for _, w := range r.work {
			w.Due += offset
			work = append(work, w)
		}
		if n := len(r.work); n > 0 {
			offset = work[len(work)-1].Due
		}
		budgetRejects += r.stats.BudgetRejected
	}
	var util float64
	var backlog time.Duration
	out.responses, util, backlog = openLoop(work)
	out.attempted = len(out.ops)
	out.offered = float64(len(out.ops))
	out.served = float64(admitted)
	out.undecided = int(budgetRejects) + out.failed

	if rs.trace {
		servingLayers(out.layers, s, measured, reg)
		out.layers["serve.utilisation"] = util
		out.layers["serve.worst_backlog_us"] = us(backlog)
		if !p.Zoned {
			// Only a monolithic engine's whole demand is small enough to
			// re-plan cold in one ILP.
			if err := scheduleProbe(out.layers, s, measured[len(measured)-1].busy, rs.tr); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// servingLayers fills the admit.*, milp.* and lp.* per-layer metrics from
// the traced pass.
func servingLayers(m map[string]float64, s *servingSetup, eps []*episodeResult, reg *obs.Registry) {
	m["topology.build_ms"] = ms(s.topoDur)
	m["topology.links"] = float64(s.topo.NumLinks())
	m["conflict.build_ms"] = ms(s.conflictDur)
	m["conflict.edges"] = float64(s.graph.NumEdges())
	m["workload.generate_ms"] = ms(s.generateDur)
	m["admit.new_ms"] = ms(s.newDur)

	byTier := map[admit.Tier][]time.Duration{}
	var rejected, releases []time.Duration
	var all, wall time.Duration
	var st admit.Stats
	decisions, slow, solves, pivots := 0, 0, 0, 0
	for _, r := range eps {
		wall += r.replay
		releases = append(releases, r.releases...)
		for _, d := range r.decisions {
			decisions++
			all += d.took
			byTier[d.tier] = append(byTier[d.tier], d.took)
			if !d.admitted {
				rejected = append(rejected, d.took)
			}
			if d.tier == admit.TierWarm || d.tier == admit.TierCold {
				slow++
				solves += d.solved
				pivots += d.pivots
			}
		}
		st.MemoHits += r.stats.MemoHits
		st.Satisficed += r.stats.Satisficed
		st.ZoneGreedy += r.stats.ZoneGreedy
		st.BudgetRejected += r.stats.BudgetRejected
		st.PreemptAttempts += r.stats.PreemptAttempts
		st.PreemptAdmits += r.stats.PreemptAdmits
		st.PreemptEvicted += r.stats.PreemptEvicted
		st.Compactions += r.stats.Compactions
	}
	n := float64(decisions)
	fast, warm, cold := byTier[admit.TierFast], byTier[admit.TierWarm], byTier[admit.TierCold]
	m["admit.fast_share"] = ratio(float64(len(fast)), n)
	m["admit.fast_p50_us"] = us(quantile(fast, 0.5))
	m["admit.fast_busy_s"] = sumDur(fast).Seconds()
	m["admit.warm_share"] = ratio(float64(len(warm)), n)
	m["admit.warm_p50_us"] = us(quantile(warm, 0.5))
	m["admit.warm_busy_s"] = sumDur(warm).Seconds()
	m["admit.memo_hit_share"] = ratio(float64(st.MemoHits), float64(len(warm)))
	m["admit.cold_share"] = ratio(float64(len(cold)), n)
	m["admit.cold_p50_us"] = us(quantile(cold, 0.5))
	m["admit.cold_mean_us"] = ratio(us(sumDur(cold)), float64(len(cold)))
	m["admit.cold_busy_s"] = sumDur(cold).Seconds()
	m["admit.satisficed"] = float64(st.Satisficed)
	m["admit.zone_greedy"] = float64(st.ZoneGreedy)
	m["admit.reject_share"] = ratio(float64(len(rejected)), n)
	m["admit.reject_busy_s"] = sumDur(rejected).Seconds()
	m["admit.budget_rejects"] = float64(st.BudgetRejected)
	m["admit.preempt_attempts"] = float64(st.PreemptAttempts)
	m["admit.preempt_admits"] = float64(st.PreemptAdmits)
	m["admit.preempt_evicted"] = float64(st.PreemptEvicted)
	m["admit.preempt_success_share"] = ratio(float64(st.PreemptAdmits), float64(st.PreemptAttempts))
	m["admit.release_p50_us"] = us(quantile(releases, 0.5))
	m["admit.release_p99_us"] = us(quantile(releases, 0.99))
	m["admit.release_busy_s"] = sumDur(releases).Seconds()
	m["admit.compactions"] = float64(st.Compactions)
	m["admit.solves_per_slow_decision"] = ratio(float64(solves), float64(slow))
	m["admit.pivots_per_slow_decision"] = ratio(float64(pivots), float64(slow))
	m["admit.window_final"] = float64(eps[len(eps)-1].window)
	// The cross-check that the tier split explains the end-to-end number:
	// warm and cold decisions' share of the replay wall.
	m["admit.slow_busy_share"] = ratio((sumDur(warm) + sumDur(cold)).Seconds(), wall.Seconds())
	m["lp.pivots"] = float64(pivots)
	solverLayers(m, reg)
}

// solverLayers copies the milp.* counters the solver registered on the
// process-default registry; lp.pivots must already be set.
func solverLayers(m map[string]float64, reg *obs.Registry) {
	snap := reg.Snapshot()
	for _, name := range []string{"milp.solves", "milp.nodes", "milp.warm_solves", "milp.cold_solves"} {
		m[name] = float64(snap.Counters[name])
	}
	m["milp.nodes_per_solve"] = ratio(m["milp.nodes"], m["milp.solves"])
	m["lp.pivots_per_node"] = ratio(m["lp.pivots"], m["milp.nodes"])
}
