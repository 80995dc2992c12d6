package admit

import (
	"context"
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

func testMesh(t *testing.T, w, h int) (*topology.Network, *conflict.Graph) {
	t.Helper()
	topo, err := topology.Grid(w, h, 100)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelGeometric, InterferenceRange: 250})
	if err != nil {
		t.Fatalf("conflict: %v", err)
	}
	return topo, g
}

func testFrame(t *testing.T, slots int) tdma.FrameConfig {
	t.Helper()
	cfg := tdma.FrameConfig{FrameDuration: 20 * time.Millisecond, DataSlots: slots}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("frame: %v", err)
	}
	return cfg
}

// TestDifferentialAdmitVsColdWorkers1 replays a workload and, after every decision, pins the
// engine against the cold re-planner: identical accept/reject verdicts, the
// engine's witness schedule valid and exactly carrying the aggregate
// demand, and its window never below the cold minimum (fastpath fill-ins
// and post-release fragmentation may leave it above, never beyond the cap).
// No search may blow its node budget: a witness admission would be a
// verdict the cold re-planner did not prove, so it fails the test loudly.
func TestDifferentialAdmitVsColdWorkers1(t *testing.T) {
	topo, g := testMesh(t, 3, 3)
	frame := testFrame(t, 24)
	e, err := New(Config{
		Graph: g, Frame: frame,
		MILP: milp.Options{MaxNodes: 200_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.compactEvery = 1 // compact on every release: exercises the re-pack constantly
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 40, ArrivalRate: 20, MeanHolding: 400 * time.Millisecond,
		SlotsPerLink: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := milp.Options{MaxNodes: 200_000}
	demand := make(map[topology.LinkID]int)
	admitted := make(map[FlowID]Flow)
	decided := 0
	for _, ev := range w.Events {
		if !ev.Arrive {
			f, ok := admitted[ev.Flow.ID]
			if !ok {
				continue
			}
			if err := e.Release(ev.Flow.ID); err != nil {
				t.Fatalf("release %s: %v", ev.Flow.ID, err)
			}
			for l, d := range demandOf(f) {
				if demand[l] -= d; demand[l] <= 0 {
					delete(demand, l)
				}
			}
			delete(admitted, ev.Flow.ID)
			if err := e.Check(); err != nil {
				t.Fatalf("after release %s: %v", ev.Flow.ID, err)
			}
			continue
		}
		dec, err := e.Admit(context.Background(), ev.Flow)
		if err != nil {
			t.Fatalf("admit %s: %v", ev.Flow.ID, err)
		}
		decided++

		// Cold oracle on the would-be demand.
		next := make(map[topology.LinkID]int, len(demand))
		for l, d := range demand {
			next[l] = d
		}
		for l, d := range demandOf(ev.Flow) {
			next[l] += d
		}
		coldFeasible := true
		coldWin := 0
		overCap := false
		for _, d := range next {
			if d > frame.DataSlots {
				overCap = true
			}
		}
		if overCap {
			coldFeasible = false
		} else {
			p := &schedule.Problem{Graph: g, Demand: next, FrameSlots: frame.DataSlots}
			win, _, _, err := schedule.MinSlots(p, frame, coldOpts)
			switch {
			case err == nil:
				coldWin = win
			case errors.Is(err, schedule.ErrInfeasible):
				coldFeasible = false
			default:
				t.Fatalf("cold oracle on %s: %v", ev.Flow.ID, err)
			}
		}

		if dec.Admitted != coldFeasible {
			t.Fatalf("flow %s: engine %v (tier %v), cold replan feasible=%v",
				ev.Flow.ID, dec.Admitted, dec.Tier, coldFeasible)
		}
		if dec.Admitted {
			admitted[ev.Flow.ID] = ev.Flow
			demand = next
			if dec.Window < coldWin || dec.Window > frame.DataSlots {
				t.Fatalf("flow %s: engine window %d outside [cold %d, frame %d]",
					ev.Flow.ID, dec.Window, coldWin, frame.DataSlots)
			}
			// A solver-tier admit proves a fresh minimum; it must equal the
			// cold one exactly.
			if (dec.Tier == TierWarm || dec.Tier == TierCold) && dec.Window != coldWin {
				t.Fatalf("flow %s: %v-tier window %d, cold window %d",
					ev.Flow.ID, dec.Tier, dec.Window, coldWin)
			}
		}
		if err := e.Check(); err != nil {
			t.Fatalf("after admit %s: %v", ev.Flow.ID, err)
		}
	}
	st := e.Stats()
	if decided == 0 || st.Admitted == 0 {
		t.Fatalf("degenerate workload: %d decisions, %d admits", decided, st.Admitted)
	}
	if st.Rejected == 0 {
		t.Fatalf("workload never saturated: %d admits, 0 rejects", st.Admitted)
	}
	if st.Satisficed != 0 {
		t.Fatalf("%d admissions decided by a witness after a blown node budget", st.Satisficed)
	}
	t.Logf("%d admits (%d fast / %d warm / %d cold), %d rejects, %d compactions",
		st.Admitted, st.Fast, st.Warm, st.Cold, st.Rejected, st.Compactions)
}

// TestFastpathFillIn pins the tier-1 contract: a flow that fits in the free
// space of the incumbent window is admitted without any solver work and the
// window does not move.
func TestFastpathFillIn(t *testing.T) {
	topo, g := testMesh(t, 1, 4) // a 4-node chain as a 1x4 grid
	frame := testFrame(t, 16)
	e, err := New(Config{Graph: g, Frame: frame, MILP: milp.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	pathA, err := topo.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pathB, err := topo.ShortestPath(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d1, err := e.Admit(ctx, Flow{ID: "a", Path: pathA, Slots: []int{4}})
	if err != nil || !d1.Admitted {
		t.Fatalf("first admit: %+v, %v", d1, err)
	}
	if d1.Tier == TierFast {
		t.Fatalf("first admit on an empty schedule cannot be fastpath: %+v", d1)
	}
	// Both links conflict (the whole 1x4 chain is within 250 m interference),
	// so the two flows stack and the window grows to 8.
	d2, err := e.Admit(ctx, Flow{ID: "b", Path: pathB, Slots: []int{4}})
	if err != nil || !d2.Admitted {
		t.Fatalf("second admit: %+v, %v", d2, err)
	}
	win := e.Window()
	// Release whichever flow holds the LOWER block: the remaining block
	// keeps the makespan at 8 and leaves a 4-slot hole at the bottom, so a
	// small follow-up flow must be a pure fill-in.
	lower, refill := FlowID("a"), pathA
	for _, a := range e.Snapshot().Assignments {
		if a.Link == pathB[0] && a.Start == 0 {
			lower, refill = "b", pathB
		}
	}
	if err := e.Release(lower); err != nil {
		t.Fatal(err)
	}
	if e.Window() != win {
		t.Fatalf("window moved on release: %d -> %d", win, e.Window())
	}
	d3, err := e.Admit(ctx, Flow{ID: "c", Path: refill, Slots: []int{2}})
	if err != nil || !d3.Admitted {
		t.Fatalf("fill-in admit: %+v, %v", d3, err)
	}
	if d3.Tier != TierFast {
		t.Fatalf("fill-in admit used tier %v, want fast", d3.Tier)
	}
	if d3.Solved != 0 || d3.Pivots != 0 {
		t.Fatalf("fastpath spent solver work: %+v", d3)
	}
	if e.Window() > win {
		t.Fatalf("fastpath grew the window: %d -> %d", win, e.Window())
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitValidation covers the request-shape errors and the structural
// early rejection.
func TestAdmitValidation(t *testing.T) {
	topo, g := testMesh(t, 2, 2)
	frame := testFrame(t, 8)
	e, err := New(Config{Graph: g, Frame: frame, MILP: milp.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	path, err := topo.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, bad := range []Flow{
		{ID: "", Path: path, Slots: []int{1}},
		{ID: "x", Path: path, Slots: nil},
		{ID: "x", Path: path, Slots: []int{0}},
		{ID: "x", Path: []topology.LinkID{9999}, Slots: []int{1}},
	} {
		if _, err := e.Admit(ctx, bad); !errors.Is(err, ErrBadFlow) {
			t.Errorf("Admit(%+v) err = %v, want ErrBadFlow", bad, err)
		}
	}
	if _, err := e.Admit(ctx, Flow{ID: "ok", Path: path, Slots: []int{2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Admit(ctx, Flow{ID: "ok", Path: path, Slots: []int{1}}); !errors.Is(err, ErrBadFlow) {
		t.Errorf("duplicate ID err = %v, want ErrBadFlow", err)
	}
	// Per-link demand beyond the frame: rejected with no tier, not an error.
	dec, err := e.Admit(ctx, Flow{ID: "huge", Path: path, Slots: []int{frame.DataSlots}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted || dec.Tier != TierNone {
		t.Errorf("oversized flow: %+v, want structural reject", dec)
	}
	if err := e.Release("nope"); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("Release(unknown) err = %v, want ErrUnknownFlow", err)
	}
	// Releasing the last flow empties the schedule.
	if err := e.Release("ok"); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); e.NumFlows() != 0 || e.Window() != 0 || st.Admitted != 1 || st.Releases != 1 {
		t.Errorf("after release: %d flows, window %d, stats %+v", e.NumFlows(), e.Window(), st)
	}
	// Two hops through one node conflict, so a one-slot window cap cannot
	// hold them: rejected without error and without leaving state.
	capped, err := New(Config{Graph: g, Frame: frame, MaxWindow: 1, MILP: milp.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	long, err := topo.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = capped.Admit(ctx, Flow{ID: "long", Path: long, Slots: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted || capped.NumFlows() != 0 || capped.Window() != 0 {
		t.Errorf("two-hop flow in a one-slot window: %+v, %d flows, window %d", dec, capped.NumFlows(), capped.Window())
	}
}

// TestObsCounters checks the admit.* metric wiring.
func TestObsCounters(t *testing.T) {
	topo, g := testMesh(t, 2, 2)
	frame := testFrame(t, 8)
	reg := obs.NewRegistry()
	e, err := New(Config{Graph: g, Frame: frame, MILP: milp.Options{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	e.compactEvery = 1
	path, err := topo.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]int, len(path))
	for i := range slots {
		slots[i] = 1
	}
	ctx := context.Background()
	if _, err := e.Admit(ctx, Flow{ID: "a", Path: path, Slots: slots}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Admit(ctx, Flow{ID: "b", Path: path, Slots: slots}); err != nil {
		t.Fatal(err)
	}
	if err := e.Release("a"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	hits := snap.Counters["admit.fastpath_hit"] + snap.Counters["admit.warm_hit"] +
		snap.Counters["admit.cold_hit"] + snap.Counters["admit.witness_hit"]
	if hits != 2 {
		t.Errorf("tier hit counters sum to %d, want 2: %v", hits, snap.Counters)
	}
	if snap.Counters["admit.release"] != 1 || snap.Counters["admit.compact"] != 1 {
		t.Errorf("release/compact counters: %v", snap.Counters)
	}
	st := e.Stats()
	if st.Admitted != 2 || st.Releases != 1 || st.Compactions != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if h, ok := snap.Histograms["admit.decision_us"]; !ok || h.Total != 2 {
		t.Errorf("decision latency histogram missing or short: %+v", snap.Histograms)
	}
}

// TestZonedAdmit drives the zoned engine on a mesh large enough for several
// zones and checks the live schedule stays valid while flows churn. Every
// call is UGS under a 16-slot deadline in a 32-slot frame, so a start cap
// binds on every demanded link: the path-major witness never runs and every
// zone goes through the zone planner and its pair gate.
func TestZonedAdmit(t *testing.T) {
	topo, g := testMesh(t, 4, 4)
	frame := testFrame(t, 32)
	e, err := New(Config{
		Graph: g, Frame: frame, Zoned: true, ZoneSize: 250, UGSDeadline: 16,
		MILP: milp.Options{MaxNodes: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tight pair gate keeps the test fast: bigger zones take the
	// greedy fallback, which is also the path under test.
	e.maxPairs = 40
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 25, ArrivalRate: 10, MeanHolding: 500 * time.Millisecond,
		SlotsPerLink: 1, Seed: 11, ClassMix: []ClassShare{{Class: ClassUGS, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Serve(context.Background(), e, w)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted == 0 {
		t.Fatalf("zoned engine admitted nothing: %+v", st)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if es := e.Stats(); es.ZoneGreedy == 0 || es.Witness != 0 {
		t.Fatalf("%d zones past the pair gate, %d witness admissions: the greedy fallback was not exercised alone",
			es.ZoneGreedy, es.Witness)
	}
	t.Logf("zoned: %+v", st)
}

// TestZonedOneZoneGreedyRespectsCap pins the one-zone rule's exactness
// condition: a zoned engine whose zone is wider than the mesh has one zone
// but keeps its pair gate, and past the gate its zone solve is a greedy
// layout that knows nothing of MaxWindow. Such a layout must be first-fit
// stitched under the cap, never placed verbatim, so the window stays within
// MaxWindow after every decision.
func TestZonedOneZoneGreedyRespectsCap(t *testing.T) {
	const maxWin = 12
	topo, g := testMesh(t, 4, 4)
	e, err := New(Config{
		Graph: g, Frame: testFrame(t, 64), MaxWindow: maxWin,
		Zoned: true, ZoneSize: 1e6,
		MILP: milp.Options{MaxNodes: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.oneZone() {
		t.Fatalf("zone size wider than the mesh gave %d zones", len(e.dec.Zones))
	}
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 30, ArrivalRate: 40, MeanHolding: time.Second,
		SlotsPerLink: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var st ServeStats
	for _, ev := range w.Events {
		if !ev.Arrive {
			if st.Depart(ev.Flow.ID) {
				if err := e.Release(ev.Flow.ID); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		d, err := e.Admit(ctx, ev.Flow)
		if err != nil {
			t.Fatal(err)
		}
		st.Record(ev.Flow, d)
		if err := e.Check(); err != nil {
			t.Fatalf("after %s (admitted=%v tier=%v): %v", ev.Flow.ID, d.Admitted, d.Tier, err)
		}
	}
	if e.Stats().ZoneGreedy == 0 {
		t.Fatal("the one zone never went past the pair gate: the greedy layout was not exercised")
	}
}

// TestOneZoneExactPlacedVerbatim pins the one-zone placement rule: on a
// monolithic engine an exact solve covers the whole demand, so its layout
// replaces the live schedule verbatim, not first-fit stitched, and the
// window it proved minimal bounds the next search (solverDirty is clear). A
// binding UGS deadline caps every start, so the witness never runs and the
// exact search decides every call that leaves the fastpath; releases mark
// the incumbent dirty in between. A mirror of the engine's zone models, fed
// every solve the engine makes (through solveHook, with the same problem,
// hint and bounds), gives the layout each exact admission must leave.
func TestOneZoneExactPlacedVerbatim(t *testing.T) {
	topo, g := testMesh(t, 3, 3)
	e, err := New(Config{
		Graph: g, Frame: testFrame(t, 64), MaxWindow: 32, UGSDeadline: 12,
		MILP: milp.Options{MaxNodes: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.oneZone() {
		t.Fatalf("monolithic engine has %d zones", len(e.dec.Zones))
	}
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 25, ArrivalRate: 20, MeanHolding: time.Second,
		SlotsPerLink: 1, Seed: 5, ClassMix: []ClassShare{{Class: ClassUGS, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mirror := partition.NewModels(e.dec, e.cfg.Frame)
	var (
		arriving Flow
		want     partition.ZoneSolution
		wantErr  error
		solves   int
	)
	e.solveHook = func() {
		// e.mu is released, and nothing else drives the engine meanwhile.
		solves++
		demand := maps.Clone(e.demand)
		for l, d := range demandOf(arriving) {
			demand[l] += d
		}
		full := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: e.cfg.Frame.DataSlots,
			StartCap: e.capsFor(e.clsAfter([]Flow{arriving}))}
		hint, lo := e.pack.End(e.dec.Zones[0].Links), 0
		if !e.solverDirty {
			lo = hint
		}
		want, wantErr = mirror.SolveZone(0, partition.ZoneProblem(full, e.dec, 0), hint, lo, e.maxWin, e.maxPairs, e.cfg.MILP)
	}
	ctx := context.Background()
	var st ServeStats
	exact, dirtyBefore := 0, 0
	for _, ev := range w.Events {
		if !ev.Arrive {
			if st.Depart(ev.Flow.ID) {
				if err := e.Release(ev.Flow.ID); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		arriving, solves = ev.Flow, 0
		dirty := e.solverDirty
		d, err := e.Admit(ctx, ev.Flow)
		if err != nil {
			t.Fatal(err)
		}
		st.Record(ev.Flow, d)
		if solves > 1 {
			t.Fatalf("%s: %d solves in one decision; the witness ran", ev.Flow.ID, solves)
		}
		if !d.Admitted || (d.Tier != TierWarm && d.Tier != TierCold) {
			continue
		}
		if wantErr != nil || want.Greedy {
			t.Fatalf("%s admitted on tier %v, but the mirrored solve gave greedy=%v err=%v", ev.Flow.ID, d.Tier, want.Greedy, wantErr)
		}
		if got := canonical(e.pack.Assignments()); !slices.Equal(got, canonical(want.Blocks)) {
			t.Fatalf("%s: live schedule %v, want the solver's layout %v verbatim", ev.Flow.ID, got, canonical(want.Blocks))
		}
		if e.solverDirty {
			t.Fatalf("%s: exact admission left the incumbent window marked dirty", ev.Flow.ID)
		}
		exact++
		if dirty {
			dirtyBefore++
		}
		if err := e.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if es := e.Stats(); exact < 5 || dirtyBefore == 0 || es.Witness != 0 || es.Satisficed != 0 {
		t.Fatalf("%d exact admissions (%d after a release), stats %+v: the exact one-zone path was not exercised", exact, dirtyBefore, es)
	}
	t.Logf("%d exact admissions, %d after a release; %d of %d calls admitted", exact, dirtyBefore, st.Admitted, st.Offered)
}

// TestBlownBudgetDecides: with a one-node budget nearly every exact search
// blows, and under a live context each one must still end in a verdict —
// the witness admits or rejects — never in milp.ErrLimit, through Admit and
// through AdmitBatch, on a monolithic and on a zoned engine, with the engine
// consistent and within its cap after every call.
func TestBlownBudgetDecides(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"mono", Config{MaxWindow: 16}},
		{"zoned", Config{MaxWindow: 12, Zoned: true, ZoneSize: 250}},
	} {
		topo, g := testMesh(t, 4, 3)
		tc.cfg.Graph, tc.cfg.Frame, tc.cfg.MILP = g, testFrame(t, 32), milp.Options{MaxNodes: 1}
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Generate(WorkloadConfig{Topo: topo, Calls: 120, ArrivalRate: 40,
			MeanHolding: time.Second, SlotsPerLink: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var st ServeStats
		var batch []Flow
		decide := func() {
			if len(batch) == 0 {
				return
			}
			ds, err := make([]Decision, 1), error(nil)
			if len(batch) == 1 {
				ds[0], err = e.Admit(ctx, batch[0])
			} else {
				ds, err = e.AdmitBatch(ctx, batch)
			}
			if err != nil {
				t.Fatalf("%s: %d arrivals: %v", tc.name, len(batch), err)
			}
			for i, d := range ds {
				st.Record(batch[i], d)
			}
			if err := e.Check(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			batch = batch[:0]
		}
		for i, ev := range w.Events {
			if ev.Arrive {
				// Alternate single arrivals and batches of three.
				if batch = append(batch, ev.Flow); i%2 == 0 || len(batch) == 3 {
					decide()
				}
				continue
			}
			decide()
			if st.Depart(ev.Flow.ID) {
				if err := e.Release(ev.Flow.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		decide()
		if es := e.Stats(); es.Satisficed == 0 || es.Rejected == 0 {
			t.Fatalf("%s: %d witness admissions, %d rejections: the witness was not exercised both ways",
				tc.name, es.Satisficed, es.Rejected)
		}
	}
}

// TestAdmitCancelRollsBack pins the deterministic half of cancellation: a
// solver-tier admission under an already-cancelled context returns ctx.Err()
// — the milp interrupt fires before any node is expanded — and the engine
// state is exactly as before the call.
func TestAdmitCancelRollsBack(t *testing.T) {
	topo, g := testMesh(t, 3, 3)
	frame := testFrame(t, 24)
	e, err := New(Config{Graph: g, Frame: frame, MILP: milp.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	path, err := topo.ShortestPath(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]int, len(path))
	for i := range slots {
		slots[i] = 2
	}
	if _, err := e.Admit(context.Background(), Flow{ID: "warmup", Path: path, Slots: slots}); err != nil {
		t.Fatal(err)
	}
	win, flows := e.Window(), e.NumFlows()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Big enough that the fastpath cannot absorb it: the solver runs and is
	// interrupted immediately.
	if _, err := e.Admit(ctx, Flow{ID: "victim", Path: path, Slots: slots}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Admit under cancelled ctx: %v, want context.Canceled", err)
	}
	if e.Window() != win || e.NumFlows() != flows {
		t.Fatalf("interrupted admission leaked state: window %d->%d, flows %d->%d",
			win, e.Window(), flows, e.NumFlows())
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCancelNoLeak cancels a serving loop mid-solve and verifies the
// engine unwinds cleanly: ctx.Err() surfaces, the engine state stays
// consistent (the interrupted admission rolled back), and no solver
// goroutines outlive the call.
func TestServeCancelNoLeak(t *testing.T) {
	topo, g := testMesh(t, 3, 3)
	frame := testFrame(t, 24)
	e, err := New(Config{Graph: g, Frame: frame,
		MILP: milp.Options{MaxNodes: 500_000}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 400, ArrivalRate: 50, MeanHolding: time.Second,
		SlotsPerLink: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var st ServeStats
	var serveErr error
	go func() {
		defer close(done)
		st, serveErr = Serve(ctx, e, w)
	}()
	// Let some decisions land, then cancel whatever is in flight.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if serveErr == nil {
		// The workload may have finished before the cancel on a fast
		// machine; that is not a failure, but the test then proved nothing
		// about interruption — make it visible.
		t.Logf("workload completed before cancellation (%d offered)", st.Offered)
	} else if !errors.Is(serveErr, context.Canceled) {
		t.Fatalf("Serve returned %v, want context.Canceled", serveErr)
	}
	if err := e.Check(); err != nil {
		t.Fatalf("engine inconsistent after cancel: %v", err)
	}
	// The serving goroutine drains asynchronously after the interrupt; give
	// it a bounded grace period.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
