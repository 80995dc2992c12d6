package admit

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"wimesh/internal/milp"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// TryDefrag attempts one solver-driven defragmentation pass: a re-solve of
// the aggregate demand over private persistent models, off the decision
// path, looking for a schedule strictly shorter than the incumbent window.
// A candidate is validated against the full conflict graph and the demand
// snapshot, then swapped into the live schedule atomically — but only if the
// schedule has not changed since the snapshot (any admit, release, compaction
// or defrag in between bumps the generation counter and the stale candidate
// is discarded). Returns the number of window slots won (0 = no win: the
// incumbent was already minimal, the solve ran out of budget, or the
// schedule moved underneath it).
//
// TryDefrag is safe to run concurrently with admissions; passes themselves
// serialize on an internal lock. Unlike first-fit compaction, which only
// slides blocks earlier in their current order, the re-solve may reorder
// blocks arbitrarily and so recovers fragmentation compaction cannot.
func (e *Engine) TryDefrag(ctx context.Context) (int, error) {
	e.dfMu.Lock()
	defer e.dfMu.Unlock()

	e.mu.Lock()
	gen0, win0 := e.gen, e.pack.Makespan()
	demand := maps.Clone(e.demand)
	// Class totals snapshotted with the demand: a classed re-pack must keep
	// every link's guaranteed prefixes covered by their deadlines, and the
	// gen check below discards the candidate if either snapshot went stale.
	var clsSnap map[topology.LinkID][2]int
	if e.classed() {
		clsSnap = maps.Clone(e.cls)
	}
	e.mu.Unlock()
	if win0 <= 1 || len(demand) == 0 {
		return 0, nil
	}

	opts := e.cfg.MILP
	if ctx != nil {
		opts.Interrupt = ctx.Done()
	}
	full := &schedule.Problem{Graph: e.cfg.Graph, Demand: demand, FrameSlots: e.cfg.Frame.DataSlots,
		StartCap: e.capsFor(clsSnap)}
	cand, err := e.defragZoned(full, win0, opts)
	if err != nil || cand == nil {
		return 0, err
	}

	// Validate the candidate off-line before it can touch the live schedule:
	// conflict-free under the full graph, and carrying exactly the snapshot
	// demand.
	tmp := &tdma.Schedule{Config: e.cfg.Frame}
	if err := tmp.SetAssignments(cand); err != nil {
		return 0, err
	}
	if err := tmp.Validate(e.cfg.Graph); err != nil {
		return 0, fmt.Errorf("admit: defrag candidate invalid: %w", err)
	}
	if err := carries(cand, demand); err != nil {
		return 0, fmt.Errorf("admit: defrag candidate invalid: %w", err)
	}
	if clsSnap != nil {
		// Deadline coverage check: the monolithic re-pack respects the caps
		// by construction, but the zoned first-fit does not track them, so a
		// candidate that uncovers a guaranteed prefix is simply not a win.
		occ := tdma.NewPacking(e.cfg.Graph)
		occ.Reset(cand)
		for l, v := range clsSnap {
			if e.uncovered(occ, l, v) {
				return 0, nil
			}
		}
	}
	win := schedule.GreedyLength(tmp)
	if win >= win0 {
		return 0, nil
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gen != gen0 {
		// The schedule moved while the re-pack solved: the candidate no
		// longer matches the live demand. Drop it; the next pass re-snapshots.
		return 0, nil
	}
	e.pack.Reset(cand)
	e.gen++
	// The window shrank but is proven minimal only by the monolithic exact
	// re-pack; staying conservative either way costs one lower-bound hint.
	e.solverDirty = true
	won := win0 - win
	e.stats.Defrags++
	e.stats.DefragSlots += uint64(won)
	e.cDefrag.Inc()
	e.cDefragSlots.Add(uint64(won))
	return won, nil
}

// noWin maps the solver outcomes that just mean "no provable win" — nothing
// fits below the incumbent window, or the budget ran out — to nil.
func noWin(err error) error {
	if errors.Is(err, schedule.ErrInfeasible) || errors.Is(err, milp.ErrLimit) {
		return nil
	}
	return err
}

// defragZoned re-solves every demand-carrying zone with the private zone
// planner, capped strictly below the incumbent window, and first-fits the
// union, in ByStart order, into a scratch packing under the same cap — any
// placement failure or budget miss means no provable win (nil candidate).
// The one zone of a monolithic engine probes one slot below the incumbent
// first — release fragmentation typically leaves only a slot or two of
// recoverable slack, so that probe usually decides — and its exact layout is
// the candidate as it stands (see oneZone). It reads only the immutable conflict
// graph and decomposition, so it runs without any engine lock but dfMu.
func (e *Engine) defragZoned(full *schedule.Problem, win0 int, opts milp.Options) ([]tdma.Assignment, error) {
	hint, one := 0, e.oneZone()
	if one {
		hint = win0 - 1
	}
	var blocks []tdma.Assignment
	exact := one
	for zi := range e.dec.Zones {
		if !slices.ContainsFunc(e.dec.Zones[zi].Links, func(l topology.LinkID) bool { return full.Demand[l] > 0 }) {
			continue
		}
		zp := partition.ZoneProblem(full, e.dec, zi)
		r, err := e.dfModels.SolveZone(zi, zp, hint, 0, win0-1, e.maxPairs, opts)
		if err != nil {
			return nil, noWin(err)
		}
		exact = exact && !r.Greedy
		blocks = append(blocks, r.Blocks...)
	}
	if exact {
		return blocks, nil
	}
	slices.SortFunc(blocks, tdma.ByStart)
	if tdma.NewPacking(e.cfg.Graph).Repack(blocks, func(topology.LinkID, int) int { return win0 - 1 }) < len(blocks) {
		return nil, nil
	}
	return blocks, nil
}
