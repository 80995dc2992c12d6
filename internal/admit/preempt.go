package admit

import (
	"context"
	"maps"
	"slices"
)

// tryPreempt is the eviction retry loop behind Config.Preempt: a
// guaranteed-class arrival that every tier rejected evicts candidate
// BE/nrtPS flows cheapest-first, re-running the full admission attempt
// after each eviction, and keeps the first state that admits. When no
// candidate set admits the arrival, every eviction is rolled back and the
// original rejection stands — a failed preemption search leaves the
// schedule, demand and flow table identical to a plain rejection.
//
// Only admitOne calls this, only for arrivals that preempts() — so victims
// are always of strictly lower class than the arrival (BE/nrtPS < rtPS <=
// f.Class) — with every zone lock and e.mu held. decide releases e.mu
// around its solves, so readers and defrag can see a trial state (evictions
// applied, arrival not yet in); each is consistent, each moves gen, and no
// other decision or release can run until the zone locks drop — a Release
// that finds a trial victim missing waits for them before it believes it.
func (e *Engine) tryPreempt(ctx context.Context, f Flow, rejected Decision) (Decision, error) {
	e.stats.PreemptAttempts++
	e.cPreemptAttempt.Inc()
	victims := e.preemptVictims(f)
	if len(victims) == 0 {
		return rejected, nil
	}

	snapBlocks := e.pack.Assignments()
	snapDirty := e.solverDirty
	snapDemand := maps.Clone(e.demand)
	snapFlows := maps.Clone(e.flows)
	snapCls := maps.Clone(e.cls)
	restore := func() {
		e.pack.Reset(snapBlocks)
		e.gen++
		e.solverDirty = snapDirty
		e.demand = snapDemand
		e.flows = snapFlows
		e.cls = snapCls
	}

	var evicted []FlowID
	for _, v := range victims {
		if err := e.removeFlow(v); err != nil {
			restore()
			return Decision{}, err
		}
		evicted = append(evicted, v.ID)
		dec, err := e.decide(ctx, []Flow{f})
		if err != nil {
			restore()
			return Decision{}, err
		}
		if dec.Admitted {
			dec.Preempted = evicted
			e.stats.PreemptAdmits++
			e.stats.PreemptEvicted += uint64(len(evicted))
			e.cPreemptAdmit.Inc()
			e.cPreemptEvict.Add(uint64(len(evicted)))
			return dec, nil
		}
	}
	restore()
	return rejected, nil
}

// preemptVictims returns the eviction candidates for arrival f: admitted
// non-guaranteed flows (BE and nrtPS — guaranteed flows are never victims)
// whose path shares or conflicts with a link of f's path. The one-hop
// conflict filter is a scoping heuristic: the admission became infeasible
// by adding demand on f's links, so relief almost always comes from their
// contention domains; remote evictions are never attempted. Candidates are
// ordered cheapest-first — class ascending (BE before nrtPS), total slots
// ascending, then ID for determinism.
func (e *Engine) preemptVictims(f Flow) []Flow {
	var out []Flow
	for _, v := range e.flows {
		if v.Class.Guaranteed() || !e.conflictRelevant(v, f) {
			continue
		}
		out = append(out, v)
	}
	slices.SortFunc(out, func(a, b Flow) int {
		if a.Class != b.Class {
			return int(a.Class) - int(b.Class)
		}
		if sa, sb := totalSlots(a), totalSlots(b); sa != sb {
			return sa - sb
		}
		if a.ID < b.ID {
			return -1
		}
		return 1
	})
	return out
}

func totalSlots(f Flow) int {
	n := 0
	for _, s := range f.Slots {
		n += s
	}
	return n
}

// conflictRelevant reports whether some link of v's path equals or
// conflicts with some link of f's path.
func (e *Engine) conflictRelevant(v, f Flow) bool {
	for _, vl := range v.Path {
		for _, fl := range f.Path {
			if vl == fl || e.cfg.Graph.Conflicts(vl, fl) {
				return true
			}
		}
	}
	return false
}
