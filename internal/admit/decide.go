package admit

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"wimesh/internal/milp"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// This file is the decision path: the lock protocol, the one group routine
// decide every entry point runs, its solver phase (zone models plus stitch),
// and release. The package comment states the lock hierarchy and the
// invariant decide keeps whenever it lets go of e.mu.

// lock acquires the given zone locks in ascending order, then e.mu — the
// whole hierarchy, in the one order that cannot deadlock — recording the time
// spent waiting on contended zone locks in the admit.lock_wait_us histogram.
func (e *Engine) lock(zones []int) {
	var wait time.Duration
	for _, zi := range zones {
		if e.zoneMu[zi].TryLock() {
			continue
		}
		start := time.Now()
		e.zoneMu[zi].Lock()
		wait += time.Since(start)
	}
	e.hLockWait.Observe(float64(wait.Microseconds()))
	e.mu.Lock()
}

// unlock releases what lock took.
func (e *Engine) unlock(zones []int) {
	e.mu.Unlock()
	for i := len(zones) - 1; i >= 0; i-- {
		e.zoneMu[zones[i]].Unlock()
	}
}

// preempts reports whether a rejection of f would enter the preemption
// search: only guaranteed-class arrivals ever do, so a BE or nrtPS arrival
// can never evict anything. Such an arrival must hold every zone lock.
func (e *Engine) preempts(f Flow) bool {
	return e.cfg.Preempt && f.Class.Guaranteed()
}

// HomeZone returns the zone of the flow's first path link (always 0 on a
// monolithic engine): the dispatch key ServeConcurrent shards arrivals by, so
// all events of one flow land on one worker in order.
func (e *Engine) HomeZone(f Flow) int {
	if len(f.Path) == 0 {
		return 0
	}
	if zi := e.dec.ZoneOf(f.Path[0]); zi >= 0 {
		return zi
	}
	return 0
}

// Admit decides one admission request. Rejections return Admitted=false
// with a nil error; a blown node budget ends in a verdict too (see
// solveZoned). Errors are reserved for malformed requests, solver faults,
// and context cancellation (ctx.Err() once the in-flight solve has been
// interrupted and rolled back).
func (e *Engine) Admit(ctx context.Context, f Flow) (Decision, error) {
	start := time.Now()
	if err := f.validate(e.cfg.Graph.NumVertices(), e.cfg.Frame.DataSlots); err != nil {
		return Decision{}, err
	}
	zones := e.allZones
	if !e.preempts(f) {
		zones = e.dec.ZoneSet(f.Path)
	}
	e.lock(zones)
	defer e.unlock(zones)
	return e.admitOne(ctx, f, start)
}

// AdmitBatch decides the flows as one joint admission where possible: the
// union of their demand deltas is checked, fastpathed or solved once, and
// every member inherits the joint verdict. Demands are monotone, so a joint
// admit proves each member individually admissible; any joint failure —
// duplicate ID, structural cap, infeasibility, stitch conflict —
// falls back to deciding the flows individually in slice order, so a joint
// failure never rejects a call on its own. A joint admission is not the
// verdict sequential Admit calls would give, though: one joint solve can lay
// out together calls whose one-by-one stitches would fail, so a batch may
// admit calls that serial decisions reject. On an error the decisions made
// so far are returned with it; the remaining flows are undecided. The union
// zone-lock set is held for the whole batch.
func (e *Engine) AdmitBatch(ctx context.Context, flows []Flow) ([]Decision, error) {
	start := time.Now()
	if len(flows) == 0 {
		return nil, nil
	}
	ids := make(map[FlowID]bool, len(flows))
	var union []topology.LinkID
	preempts := false
	for _, f := range flows {
		if err := f.validate(e.cfg.Graph.NumVertices(), e.cfg.Frame.DataSlots); err != nil {
			return nil, err
		}
		if ids[f.ID] {
			return nil, fmt.Errorf("%w: duplicate flow %s in batch", ErrBadFlow, f.ID)
		}
		ids[f.ID] = true
		union = append(union, f.Path...)
		preempts = preempts || e.preempts(f)
	}
	e.hBatch.Observe(float64(len(flows)))
	zones := e.allZones
	if !preempts {
		zones = e.dec.ZoneSet(union)
	}
	e.lock(zones)
	defer e.unlock(zones)
	if len(flows) == 1 {
		d, err := e.admitOne(ctx, flows[0], start)
		if err != nil {
			return nil, err
		}
		return []Decision{d}, nil
	}
	if out, err := e.admitJoint(ctx, flows, start); out != nil || err != nil {
		return out, err
	}
	out := make([]Decision, 0, len(flows))
	for _, f := range flows {
		d, err := e.admitOne(ctx, f, time.Now())
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
	return out, nil
}

// admitOne is the authoritative decision of one validated flow: one attempt
// through the tiers and — for a rejected guaranteed-class arrival with
// Config.Preempt — the preemption retry loop. Called with the flow's zone
// locks (all of them if it may preempt) and e.mu held.
func (e *Engine) admitOne(ctx context.Context, f Flow, start time.Time) (Decision, error) {
	if err := e.duplicate([]Flow{f}); err != nil {
		return Decision{}, err
	}
	dec, err := e.decide(ctx, []Flow{f})
	if err != nil {
		return Decision{}, err
	}
	if !dec.Admitted && e.preempts(f) {
		dec, err = e.tryPreempt(ctx, f, dec)
		if err != nil {
			return Decision{}, err
		}
	}
	return e.finish(time.Since(start), dec), nil
}

// admitJoint attempts the joint decision of a batch. A nil result with a nil
// error means the joint attempt proved nothing (duplicate, cap, or reject)
// and the caller must decide the flows individually: a joint failure must
// not reject a call a sequential run would admit. Called like admitOne.
func (e *Engine) admitJoint(ctx context.Context, flows []Flow, start time.Time) ([]Decision, error) {
	if e.duplicate(flows) != nil {
		return nil, nil
	}
	dec, err := e.decide(ctx, flows)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, err
		}
		// A member whose ID a concurrent decision took meanwhile fails on
		// its own, after the members before it were decided.
		if errors.Is(err, ErrBadFlow) {
			return nil, nil
		}
		return nil, err
	}
	if !dec.Admitted {
		return nil, nil
	}
	// Per-member decisions whose latency is the group elapsed time amortized
	// across the members (the solve ran once for all of them).
	e.stats.Batched += uint64(len(flows))
	per := time.Since(start) / time.Duration(len(flows))
	out := make([]Decision, len(flows))
	for i := range out {
		if i == 1 {
			// Solver effort is attributed once, to the first member.
			dec.Solved, dec.Pivots = 0, 0
		}
		out[i] = e.finish(per, dec)
	}
	return out, nil
}

// duplicate reports the first of the flows whose ID the engine already
// serves. Called with e.mu held.
func (e *Engine) duplicate(flows []Flow) error {
	for _, f := range flows {
		if _, dup := e.flows[f.ID]; dup {
			return fmt.Errorf("%w: flow %s already admitted", ErrBadFlow, f.ID)
		}
	}
	return nil
}

// finish stamps the latency and the shared admit/reject tallies.
func (e *Engine) finish(latency time.Duration, d Decision) Decision {
	d.Latency = latency
	if d.Admitted {
		e.stats.Admitted++
	} else {
		e.stats.Rejected++
		e.cReject.Inc()
	}
	e.hDecision.Observe(float64(d.Latency.Microseconds()))
	return d
}

// decide runs one admission attempt for the flows as a group — structural
// and class screens, the first-fit fastpath, then the solver tiers — and on
// success commits engine state and books the per-tier tallies, once per
// member. The shared admit/reject tallies and the latency stamp are the
// caller's (finish), so the preemption loop can re-run the attempt after
// evictions, and a rejected group of two or more is the caller's cue to
// decide its members one by one.
//
// Called with the flows' zone locks and e.mu held, the flows validated and
// not duplicates; returns the same way. In between it releases e.mu around
// every solve: the zone locks keep the demand and class totals of every
// touched link frozen, so the snapshot taken here cannot go stale where the
// solves and the stitch read it, while everything else — other zones'
// demand, the live schedule under compaction or defrag — may move and is
// re-read under e.mu.
func (e *Engine) decide(ctx context.Context, flows []Flow) (Decision, error) {
	delta := demandOf(flows...)
	for l, d := range delta {
		if e.demand[l]+d > e.maxWin {
			// No window within the cap can carry this link's demand:
			// structurally impossible, no solver needed.
			return Decision{Tier: TierNone}, nil
		}
	}
	newCls := e.clsAfter(flows)
	if newCls != nil {
		for l := range delta {
			if v := newCls[l]; e.clsOver(v[0], v[1]) {
				// The link's guaranteed-class slots cannot all complete by
				// their deadlines in any window: structurally impossible.
				return Decision{Tier: TierNone}, nil
			}
		}
	}

	if placed := e.tryFastpath(delta, newCls); placed != nil {
		for _, a := range placed {
			e.pack.Add(a)
		}
		dec := Decision{Admitted: true, Tier: TierFast, Window: e.pack.Makespan()}
		e.commit(flows, delta, dec)
		return dec, nil
	}

	newDemand := maps.Clone(e.demand)
	for l, d := range delta {
		newDemand[l] += d
	}
	opts := e.cfg.MILP
	if ctx != nil {
		opts.Interrupt = ctx.Done()
	}
	// The prospective class totals reach the solvers as absolute start caps.
	full := &schedule.Problem{Graph: e.cfg.Graph, Demand: newDemand, FrameSlots: e.cfg.Frame.DataSlots,
		StartCap: e.capsFor(newCls)}
	dec, err := e.solveZoned(ctx, flows, delta, full, newCls, opts)
	if err != nil || !dec.Admitted {
		return dec, err
	}
	e.commit(flows, delta, dec)
	return dec, nil
}

// commit books an admitted group whose slots are already in the live
// schedule: demand, class totals, flow table, generation, and the tier
// tallies once per member. Called with e.mu held.
func (e *Engine) commit(flows []Flow, delta map[topology.LinkID]int, dec Decision) {
	for l, d := range delta {
		e.demand[l] += d
	}
	for _, f := range flows {
		e.flows[f.ID] = f
		if e.classed() {
			classAdd(e.cls, f, 1)
		}
	}
	e.gen++
	k := uint64(len(flows))
	switch dec.Tier {
	case TierFast:
		e.stats.Fast += k
		e.cFast.Add(k)
	case TierWarm:
		e.stats.Warm += k
		e.stats.WarmPivots += uint64(dec.Pivots)
		e.cWarm.Add(k)
		e.cWarmPivots.Add(uint64(dec.Pivots))
	case TierCold:
		e.stats.Cold += k
		e.cCold.Add(k)
	case TierWitness:
		e.stats.Witness += k
		e.cWitness.Add(k)
	}
}

// solverErr folds a solver failure into the engine's error contract:
// infeasibility is a rejection (nil error), a search interrupted by the
// context surfaces the context's error, anything else passes through.
// Called with e.mu held.
func (e *Engine) solverErr(ctx context.Context, tier Tier, err error) (Decision, error) {
	switch {
	case errors.Is(err, schedule.ErrInfeasible):
		return Decision{Tier: tier, Window: e.pack.Makespan()}, nil
	case ctx != nil && ctx.Err() != nil && errors.Is(err, milp.ErrLimit):
		return Decision{}, ctx.Err()
	}
	return Decision{}, err
}

// book records a zone solve's greedy tally and returns the tier it ran on.
// Called with e.mu held.
func (e *Engine) book(r partition.ZoneSolution) Tier {
	if r.Greedy {
		e.stats.ZoneGreedy++
		e.cZoneGreedy.Inc()
	}
	if r.Cold {
		return TierCold
	}
	return TierWarm
}

// beginSolve releases e.mu for a solve; the caller retakes it afterwards.
func (e *Engine) beginSolve() {
	e.mu.Unlock()
	if e.solveHook != nil {
		e.solveHook()
	}
}

// oneZone reports whether the decomposition is a single zone, as on every
// monolithic engine. That zone's problem is the whole demand, so an exact
// solve proves the window minimal: its layout is placed verbatim, and until
// solverDirty the incumbent window bounds the next search from below. A
// greedy layout (past a zoned engine's gate) ignores the cap: it is stitched.
func (e *Engine) oneZone() bool {
	return len(e.dec.Zones) == 1
}

// solveZoned is the solver phase: re-solve the zones the delta touches, in
// ascending order, and first-fit their new blocks back against the rest of
// the schedule. After each zone's solve the zones solved so far are stitched
// on trial, so a cross-zone packing failure rejects before the remaining
// zones are solved at all; only the last zone's stitch is kept (see the
// package invariant). The one zone of a monolithic engine is not stitched
// but replaces the schedule (see oneZone).
//
// Each zone first tries its path-major witness (see pathMajor) under a live
// context. A window within the cap is stitched like any witness; one that
// does not fit, or whose stitch fails, falls through to the exact search.
//
// A zone whose exact search blows its node budget under a live context is
// not solved again: admission asks for a window within the cap, not the
// minimum, so the zone's demand in schedule.Greedy's order is the witness
// the stitch first-fits around the live schedule — on a one-zone engine,
// exactly the greedy packing under the cap and the class deadlines. A
// witness that does not fit is a conservative rejection, like any stitch
// failure. Called with e.mu held; releases it for each solve.
func (e *Engine) solveZoned(ctx context.Context, flows []Flow, delta map[topology.LinkID]int, full *schedule.Problem, newCls map[topology.LinkID][2]int, opts milp.Options) (Decision, error) {
	links := make([]topology.LinkID, 0, len(delta))
	for l := range delta {
		links = append(links, l)
	}
	live := e.witnessFlows(full, flows)
	zones, one := e.dec.ZoneSet(links), e.oneZone()
	tier, exact, nsolved, pivots, witnessed := TierWarm, false, 0, 0, false
	blocks := make([][]tdma.Assignment, len(zones))
	for k, zi := range zones {
		hint, lo := e.pack.End(e.dec.Zones[zi].Links), 0
		e.beginSolve()
		zp := partition.ZoneProblem(full, e.dec, zi)
		if live != nil && (ctx == nil || ctx.Err() == nil) {
			if w := e.pathMajor(zp, zi, live); w != nil {
				e.mu.Lock()
				if err := e.duplicate(flows); err != nil {
					return Decision{}, err
				}
				blocks[k], e.solverDirty = w, true
				if e.stitch(zones[:k+1], blocks, newCls, k == len(zones)-1) {
					continue
				}
				e.beginSolve()
			}
		}
		if one && !e.solverDirty {
			// Demand has only grown since the incumbent window was proven
			// minimal, so it is a sound lower bound; with the hint equal to
			// it, the common case is a single warm probe.
			lo = hint
		}
		r, err := e.models.SolveZone(zi, zp, hint, lo, e.maxWin, e.maxPairs, opts)
		witness := errors.Is(err, milp.ErrLimit) && (ctx == nil || ctx.Err() == nil)
		if witness {
			r.Blocks, err = e.dec.CityBlocks(zi, schedule.GreedyOrder(zp)), nil
		}
		e.mu.Lock()
		tier, exact = max(tier, e.book(r)), true
		if err == nil {
			err = e.duplicate(flows)
		}
		if err != nil {
			return e.solverErr(ctx, tier, err)
		}
		blocks[k] = r.Blocks
		nsolved += r.Solved
		pivots += r.Pivots
		witnessed = witnessed || witness
		if one && !r.Greedy && !witness {
			// The exact solve covers the whole frozen demand, so its layout
			// replaces the live schedule outright, whatever defrag did to it
			// meanwhile. A first-fit re-stitch would move later decisions.
			e.pack.Reset(r.Blocks)
			e.solverDirty = false
			continue
		}
		// A greedy or witness window is not a proven minimum.
		e.solverDirty = e.solverDirty || r.Greedy || witness
		if !e.stitch(zones[:k+1], blocks, newCls, k == len(zones)-1) {
			// Cross-zone packing failure (or a class deadline the stitch
			// cannot keep): conservative rejection, like the partitioned
			// planner's stitch failures.
			return Decision{Tier: tier, Window: e.pack.Makespan()}, nil
		}
	}
	if !exact {
		tier = TierWitness
	}
	if witnessed {
		e.stats.Satisficed += uint64(len(flows))
		e.cSatisfice.Add(uint64(len(flows)))
	}
	return Decision{Admitted: true, Tier: tier, Window: e.pack.Makespan(), Solved: nsolved, Pivots: pivots}, nil
}

// witnessFlows returns the live and arriving flows, or nil when a start cap
// binds within the window cap: the path-major witness knows no start caps,
// so it runs only where it answers to the exact search's constraints.
// Called with e.mu held.
func (e *Engine) witnessFlows(full *schedule.Problem, flows []Flow) []Flow {
	for l, c := range full.StartCap {
		if c < e.maxWin-full.Demand[l] {
			return nil
		}
	}
	live := make([]Flow, 0, len(e.flows)+len(flows))
	for _, f := range e.flows {
		live = append(live, f)
	}
	return append(live, flows...)
}

// pathMajor is zone zi's witness, the paper's polynomial half: the flows'
// paths, clipped to the zone, rank its links by their latest hop
// (schedule.PathMajorOrder), and Bellman-Ford finds its smallest window up
// to the cap (schedule.MinWindowForOrder; no wider window can admit). It
// returns the layout in ByStart order and city IDs, or nil. Runs without
// e.mu.
func (e *Engine) pathMajor(zp *schedule.Problem, zi int, flows []Flow) []tdma.Assignment {
	wp := &schedule.Problem{Graph: zp.Graph, Demand: zp.Demand, FrameSlots: zp.FrameSlots}
	for _, f := range flows {
		var clip topology.Path
		for _, l := range f.Path {
			if e.dec.ZoneOf(l) == zi {
				clip = append(clip, e.dec.Local(l))
			}
		}
		if clip != nil {
			wp.Flows = append(wp.Flows, schedule.FlowRequirement{Path: clip})
		}
	}
	capped := e.cfg.Frame
	capped.DataSlots = e.maxWin
	_, s, err := schedule.MinWindowForOrder(wp, schedule.PathMajorOrder(wp), capped)
	if err != nil {
		return nil
	}
	slices.SortFunc(s.Assignments, tdma.ByStart)
	return e.dec.CityBlocks(zi, s.Assignments)
}

// stitch swaps the zones' allocations into the live schedule: per zone, cut
// its old blocks, then first-fit the new ones in slice order — a solver's
// layout in ByStart order, its placement hint, or a witness in greedy order
// (conflicts against other zones are re-checked against the live packing,
// so halo links stay safe, and cls bounds each block by its link's class
// deadlines through stitchLimit). It reports whether every block fit. The
// zones' old blocks are put back unless every block fit and keep is set; no
// other link is touched. Called with e.mu held.
func (e *Engine) stitch(zones []int, blocks [][]tdma.Assignment, cls map[topology.LinkID][2]int, keep bool) bool {
	limit := func(l topology.LinkID, n int) int { return e.stitchLimit(l, n, cls) }
	var old []tdma.Assignment
	cut, ok := 0, true
	for ok && cut < len(zones) {
		old = append(old, e.pack.Cut(e.dec.Zones[zones[cut]].Links)...)
		// Repack rewrites starts; the next trial stitches the solver's layout again.
		trial := slices.Clone(blocks[cut])
		ok = e.pack.Repack(trial, limit) == len(trial)
		cut++
	}
	if ok && keep {
		return true
	}
	for _, zi := range zones[:cut] {
		e.pack.Cut(e.dec.Zones[zi].Links)
	}
	for _, a := range old {
		e.pack.Add(a)
	}
	return ok
}

// tryFastpath attempts first-fit placement of the delta entirely within the
// current window. Returns the placements to commit, or nil when any link
// does not fit (the solver tiers take over). newCls, when non-nil, carries
// the prospective per-link class totals: each link's placement is then cut
// into up to three segments — slots that must end by the UGS deadline,
// by the rtPS window, and anywhere in the window — sized so the link's
// deadline coverage (see Check) holds after the commit. With newCls nil the
// placement degenerates to the single unconstrained segment and is
// byte-identical to the class-oblivious fastpath. Called with e.mu held.
func (e *Engine) tryFastpath(delta map[topology.LinkID]int, newCls map[topology.LinkID][2]int) []tdma.Assignment {
	win := e.pack.Makespan()
	if win == 0 {
		return nil
	}
	links := make([]topology.LinkID, 0, len(delta))
	for l := range delta {
		links = append(links, l)
	}
	slices.Sort(links)
	var pending []tdma.Assignment
	for _, l := range links {
		need := delta[l]
		n1, n2 := 0, 0
		lim1, lim2 := win, win
		if newCls != nil {
			v := newCls[l]
			if D1 := e.cfg.UGSDeadline; D1 > 0 && v[0] > 0 {
				if n1 = v[0] - e.pack.Covered(l, D1); n1 < 0 {
					n1 = 0
				}
				lim1 = min(lim1, D1)
			}
			if D2 := e.cfg.RtPSWindow; D2 > 0 && v[1] > 0 {
				if n2 = v[0] + v[1] - e.pack.Covered(l, D2); n2 < 0 {
					n2 = 0
				}
				lim2 = min(lim2, D2)
			}
			n2 = max(n2, n1)
			if n2 > need {
				// Coverage short by more than this delta adds: the live
				// invariant should make this impossible, but defer to the
				// solver rather than over-place.
				return nil
			}
		}
		for _, seg := range [3][2]int{{n1, lim1}, {n2 - n1, lim2}, {need - n2, win}} {
			n, lim := seg[0], seg[1]
			for n > 0 {
				s := e.pack.FirstFit(l, n, lim, pending)
				m := n
				if s < 0 {
					// No room for the full run; take the largest leading free
					// gap instead, splitting the demand across blocks.
					s, m = e.pack.FirstGap(l, lim, pending)
					if s < 0 {
						return nil
					}
					if m > n {
						m = n
					}
				}
				pending = append(pending, tdma.Assignment{Link: l, Start: s, Length: m})
				n -= m
			}
		}
	}
	return pending
}

// Release returns a flow's slots. The schedule shrinks in place (highest
// start blocks first); every 64th release the engine re-packs all
// blocks first-fit to reclaim fragmentation — the re-pack never grows the
// makespan (see tdma.Packing.Repack).
//
// The flow's zone locks must be taken before e.mu (lock order), so the flow
// is looked up first, its zones locked, and the lookup repeated: a concurrent
// Release or eviction of the same ID may have won the race in between, or the
// ID been re-admitted over another path, whose zones are then the ones to
// lock. On a Preempt engine a miss under e.mu alone proves nothing — a
// preemption search in flight may have the flow out on trial and put it back —
// so the miss is confirmed under every zone lock, which no search overlaps.
func (e *Engine) Release(id FlowID) error {
	e.mu.Lock()
	f0, ok := e.flows[id]
	e.mu.Unlock()
	zones := e.allZones
	if ok {
		zones = e.dec.ZoneSet(f0.Path)
	} else if !e.cfg.Preempt {
		return fmt.Errorf("%w: %s", ErrUnknownFlow, id)
	}
	e.lock(zones)
	f, ok := e.flows[id]
	if ok && len(zones) < len(e.allZones) && !slices.Equal(f.Path, f0.Path) {
		e.unlock(zones)
		return e.Release(id)
	}
	defer e.unlock(zones)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownFlow, id)
	}
	if err := e.removeFlow(f); err != nil {
		return err
	}
	e.stats.Releases++
	e.cRelease.Inc()
	e.releases++
	if every := e.compactEvery; every > 0 && e.releases >= every {
		e.releases = 0
		return e.compact()
	}
	return nil
}

// removeFlow takes f's slots, demand and class totals out of the live
// state: the whole of an eviction, and a release before its bookkeeping —
// stats, counters and the periodic compaction, which an eviction must not
// touch because it is an internal move of one admission decision and a
// rolled-back trial leaves the tallies alone. Called with f's zone locks
// and e.mu held.
func (e *Engine) removeFlow(f Flow) error {
	for l, d := range demandOf(f) {
		if err := e.pack.Trim(l, d); err != nil {
			return err
		}
		if e.demand[l] -= d; e.demand[l] <= 0 {
			delete(e.demand, l)
		}
	}
	delete(e.flows, f.ID)
	if e.classed() {
		classAdd(e.cls, f, -1)
	}
	e.solverDirty = true
	e.gen++
	return nil
}

// compact re-packs every block first-fit in ByStart order, which can only
// move a block earlier (see tdma.Packing.Repack). Called with e.mu held.
func (e *Engine) compact() error {
	start := time.Now()
	blocks := e.pack.Assignments()
	slices.SortFunc(blocks, tdma.ByStart)
	e.pack.Reset(nil)
	if i := e.pack.Repack(blocks, func(topology.LinkID, int) int { return e.maxWin }); i < len(blocks) {
		return fmt.Errorf("admit: compaction cannot re-place link %d's block from slot %d", blocks[i].Link, blocks[i].Start)
	}
	e.gen++
	e.stats.Compactions++
	e.cCompact.Inc()
	e.hCompact.Observe(float64(time.Since(start).Microseconds()))
	return nil
}
