package admit

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// TestClassStrictExtension pins the tentpole's compatibility contract:
// classes are a strict extension. A UGS-only workload decided by a
// class-aware engine — classes tagged, and the UGS deadline set to the
// window cap so it never binds — produces verdicts, tiers, windows and
// schedules identical to the class-oblivious engine deciding the same
// untagged workload.
func TestClassStrictExtension(t *testing.T) {
	topo, g := testMesh(t, 3, 3)
	frame := testFrame(t, 24)
	arms := []struct {
		name string
		cfg  Config
	}{
		{"no deadlines", Config{Graph: g, Frame: frame, MILP: milp.Options{MaxNodes: 200_000}}},
		{"slack deadline", Config{Graph: g, Frame: frame, MILP: milp.Options{MaxNodes: 200_000},
			UGSDeadline: frame.DataSlots}},
	}
	for _, arm := range arms {
		name := arm.name
		// Fresh engines per arm: solver warm state survives a drain and can
		// reorder (not change) later schedules, which would be a false diff.
		base, err := New(Config{Graph: g, Frame: frame, MILP: milp.Options{MaxNodes: 200_000}})
		if err != nil {
			t.Fatal(err)
		}
		classed, err := New(arm.cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Generate(WorkloadConfig{
			Topo: topo, Calls: 40, ArrivalRate: 20, MeanHolding: 400 * time.Millisecond,
			SlotsPerLink: 2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		baseAdmitted := make(map[FlowID]bool)
		for _, ev := range w.Events {
			if !ev.Arrive {
				if baseAdmitted[ev.Flow.ID] {
					if err := base.Release(ev.Flow.ID); err != nil {
						t.Fatalf("%s: base release: %v", name, err)
					}
					if err := classed.Release(ev.Flow.ID); err != nil {
						t.Fatalf("%s: classed release: %v", name, err)
					}
					delete(baseAdmitted, ev.Flow.ID)
				}
				continue
			}
			bd, err := base.Admit(ctx, ev.Flow)
			if err != nil {
				t.Fatalf("%s: base admit %s: %v", name, ev.Flow.ID, err)
			}
			ugs := ev.Flow
			ugs.Class = ClassUGS
			cd, err := classed.Admit(ctx, ugs)
			if err != nil {
				t.Fatalf("%s: classed admit %s: %v", name, ev.Flow.ID, err)
			}
			if bd.Admitted != cd.Admitted || bd.Tier != cd.Tier || bd.Window != cd.Window {
				t.Fatalf("%s: %s diverged: base {adm %v tier %v win %d}, classed {adm %v tier %v win %d}",
					name, ev.Flow.ID, bd.Admitted, bd.Tier, bd.Window, cd.Admitted, cd.Tier, cd.Window)
			}
			if len(cd.Preempted) != 0 {
				t.Fatalf("%s: %s preempted %v without Preempt configured", name, ev.Flow.ID, cd.Preempted)
			}
			if bd.Admitted {
				baseAdmitted[ev.Flow.ID] = true
			}
			// Schedule identity is per-set: assignment slice order depends on
			// map iteration inside the solver path and differs even between
			// two identically-configured engines.
			bs, cs := canonical(base.Snapshot().Assignments), canonical(classed.Snapshot().Assignments)
			if !slices.Equal(bs, cs) {
				t.Fatalf("%s: schedules diverged after %s:\nbase    %v\nclassed %v", name, ev.Flow.ID, bs, cs)
			}
			if err := classed.Check(); err != nil {
				t.Fatalf("%s: after %s: %v", name, ev.Flow.ID, err)
			}
		}
	}
}

// canonical sorts a copy of the assignments by (link, start, length) so two
// schedules can be compared as sets.
func canonical(as []tdma.Assignment) []tdma.Assignment {
	out := slices.Clone(as)
	slices.SortFunc(out, func(a, b tdma.Assignment) int {
		if a.Link != b.Link {
			return int(a.Link - b.Link)
		}
		if a.Start != b.Start {
			return a.Start - b.Start
		}
		return a.Length - b.Length
	})
	return out
}

// singleLinkPath returns a one-link path (and the link) for preemption
// scenarios where all flows contend on the same link.
func singleLinkPath(t *testing.T, topo *topology.Network) []topology.LinkID {
	t.Helper()
	path, err := topo.ShortestPath(0, 1)
	if err != nil || len(path) != 1 {
		t.Fatalf("shortest path 0-1: %v (len %d)", err, len(path))
	}
	return path
}

// TestPreemptClassOrder pins the preemption policy: a guaranteed-class
// arrival admitted by eviction takes the cheapest lower-class victims (BE
// before nrtPS), never touches guaranteed flows, and non-guaranteed
// arrivals never trigger the search at all.
func TestPreemptClassOrder(t *testing.T) {
	topo, g := testMesh(t, 2, 2)
	frame := testFrame(t, 8)
	reg := obs.NewRegistry()
	e, err := New(Config{Graph: g, Frame: frame, MILP: milp.Options{MaxNodes: 200_000},
		Preempt: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	path := singleLinkPath(t, topo)
	mk := func(id string, slots int, c Class) Flow {
		return Flow{ID: FlowID(id), Path: path, Slots: []int{slots}, Class: c}
	}
	ctx := context.Background()
	admit := func(f Flow) Decision {
		t.Helper()
		d, err := e.Admit(ctx, f)
		if err != nil {
			t.Fatalf("admit %s: %v", f.ID, err)
		}
		return d
	}

	// Fill the link: BE + nrtPS + UGS leave no free slot.
	if d := admit(mk("be-1", 2, ClassBE)); !d.Admitted {
		t.Fatal("be-1 rejected on empty engine")
	}
	if d := admit(mk("nrtps-1", 2, ClassNrtPS)); !d.Admitted {
		t.Fatal("nrtps-1 rejected")
	}
	if d := admit(mk("ugs-1", 4, ClassUGS)); !d.Admitted {
		t.Fatal("ugs-1 rejected")
	}

	// A BE arrival over capacity must reject without entering the search.
	if d := admit(mk("be-over", 2, ClassBE)); d.Admitted || len(d.Preempted) != 0 {
		t.Fatalf("BE overload arrival: %+v", d)
	}
	// Same for nrtPS: non-guaranteed classes never preempt.
	if d := admit(mk("nrtps-over", 2, ClassNrtPS)); d.Admitted || len(d.Preempted) != 0 {
		t.Fatalf("nrtPS overload arrival: %+v", d)
	}
	if st := e.Stats(); st.PreemptAttempts != 0 {
		t.Fatalf("non-guaranteed arrivals entered the preemption search: %+v", st)
	}
	if n := e.NumFlows(); n != 3 {
		t.Fatalf("flows after rejected arrivals: %d, want 3", n)
	}

	// A voice (UGS) arrival preempts — and must take the BE flow, not the
	// nrtPS flow and certainly not the UGS one.
	d := admit(mk("ugs-2", 2, ClassUGS))
	if !d.Admitted {
		t.Fatalf("voice arrival not admitted by preemption: %+v", d)
	}
	if len(d.Preempted) != 1 || d.Preempted[0] != "be-1" {
		t.Fatalf("voice arrival evicted %v, want [be-1]", d.Preempted)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	// The evicted flow is gone: releasing it must fail, the survivors not.
	if err := e.Release("be-1"); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("release of evicted flow: %v, want ErrUnknownFlow", err)
	}
	if n := e.NumFlows(); n != 3 {
		t.Fatalf("flows after preemptive admit: %d, want 3", n)
	}

	// rtPS preempts too, and the remaining nrtPS flow is the victim now.
	d = admit(mk("rtps-1", 2, ClassRtPS))
	if !d.Admitted || len(d.Preempted) != 1 || d.Preempted[0] != "nrtps-1" {
		t.Fatalf("rtPS arrival: %+v, want admitted evicting nrtps-1", d)
	}

	// Only guaranteed flows remain; a further UGS arrival finds no victims
	// and the failed search must leave the engine untouched.
	before := canonical(e.Snapshot().Assignments)
	d = admit(mk("ugs-3", 2, ClassUGS))
	if d.Admitted || len(d.Preempted) != 0 {
		t.Fatalf("UGS arrival with only guaranteed flows: %+v", d)
	}
	if after := canonical(e.Snapshot().Assignments); !slices.Equal(before, after) {
		t.Fatalf("failed preemption search mutated the schedule:\nbefore %v\nafter  %v", before, after)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.PreemptAttempts != 3 || st.PreemptAdmits != 2 || st.PreemptEvicted != 2 {
		t.Fatalf("preempt tallies: %+v", st)
	}
	snap := reg.Snapshot()
	if snap.Counters["admit.preempt_attempt"] != 3 ||
		snap.Counters["admit.preempt_admit"] != 2 ||
		snap.Counters["admit.preempt_evict"] != 2 {
		t.Fatalf("preempt counters: %v", snap.Counters)
	}
}

// TestPreemptServe pins the serving-path handling of evictions: a replay
// whose decisions preempt flows must not later Release the evicted IDs.
func TestPreemptServe(t *testing.T) {
	topo, g := testMesh(t, 3, 3)
	frame := testFrame(t, 12)
	e, err := New(Config{Graph: g, Frame: frame, MILP: milp.Options{MaxNodes: 200_000},
		Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 60, ArrivalRate: 100, MeanHolding: 2 * time.Second,
		SlotsPerLink: 1, Seed: 11,
		ClassMix: []ClassShare{
			{Class: ClassUGS, Weight: 0.5},
			{Class: ClassBE, Weight: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Serve(context.Background(), e, w)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if st.Preempted == 0 {
		t.Fatalf("overloaded mixed replay took no preemptions: %+v", st)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateFoldedDuplicateDemand pins the duplicate-link contract: the
// per-link demand every tier sees is the FOLDED one, and a fold beyond the
// frame is a malformed request, while a fold beyond only the window cap
// stays an ordinary structural rejection.
func TestValidateFoldedDuplicateDemand(t *testing.T) {
	topo, g := testMesh(t, 2, 2)
	frame := testFrame(t, 8)
	path := singleLinkPath(t, topo)
	dup := []topology.LinkID{path[0], path[0]}
	ctx := context.Background()

	e, err := New(Config{Graph: g, Frame: frame, MILP: milp.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	// Each entry fits the frame, the fold does not: request error.
	if _, err := e.Admit(ctx, Flow{ID: "fold", Path: dup, Slots: []int{5, 5}}); !errors.Is(err, ErrBadFlow) {
		t.Fatalf("folded over-frame flow: %v, want ErrBadFlow", err)
	}
	// Fold within the frame but beyond the window cap: a verdict, not an
	// error, matching the single-entry structural screen.
	capped, err := New(Config{Graph: g, Frame: frame, MaxWindow: 4, MILP: milp.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := capped.Admit(ctx, Flow{ID: "cap", Path: dup, Slots: []int{3, 3}})
	if err != nil {
		t.Fatalf("folded over-cap flow: %v", err)
	}
	if d.Admitted || d.Tier != TierNone {
		t.Fatalf("folded over-cap flow decided %+v, want TierNone rejection", d)
	}
	// A legal duplicate-link flow folds and serves normally.
	d, err = e.Admit(ctx, Flow{ID: "ok", Path: dup, Slots: []int{2, 2}})
	if err != nil || !d.Admitted {
		t.Fatalf("legal duplicate-link flow: %+v, %v", d, err)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if err := e.Release("ok"); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSnapshotRace hammers the read accessors while a concurrent
// replay (with background defrag) mutates the engine. Run under
// -race this pins the read-path locking audit: every reader-visible field
// is only ever written under e.mu.
func TestShardedSnapshotRace(t *testing.T) {
	topo, g := testMesh(t, 4, 4)
	frame := testFrame(t, 32)
	e, err := New(Config{
		Graph: g, Frame: frame,
		MILP:  milp.Options{MaxNodes: 50_000},
		Zoned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tight pair gate keeps the replay fast and sends the bigger zones
	// down the greedy fallback, which the final assertion requires.
	e.maxPairs = 40
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 80, ArrivalRate: 100, MeanHolding: 300 * time.Millisecond,
		SlotsPerLink: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var st ServeStats
	var serr error
	go func() {
		defer close(done)
		st, serr = ServeConcurrent(context.Background(), e, w, ServeOptions{Workers: 4, Defrag: true})
	}()
	reads := 0
	for {
		select {
		case <-done:
			if serr != nil {
				t.Fatalf("serve: %v", serr)
			}
			if st.Offered == 0 {
				t.Fatalf("replay offered nothing: %+v", st)
			}
			if reads == 0 {
				t.Fatal("hammer loop never ran")
			}
			if err := e.Check(); err != nil {
				t.Fatal(err)
			}
			if e.Stats().ZoneGreedy == 0 {
				t.Fatal("no zone went past the pair gate: the greedy fallback was not exercised")
			}
			return
		default:
		}
		if e.Window() < 0 || e.NumFlows() < 0 {
			t.Fatal("negative reader output")
		}
		_ = e.Stats()
		if s := e.Snapshot(); s == nil {
			t.Fatal("nil snapshot")
		}
		reads++
	}
}
