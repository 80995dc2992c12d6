package admit

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wimesh/internal/milp"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*.golden traces from this run")

// traceReplay is one seeded serving replay of the golden traces.
type traceReplay struct {
	name string
	w, h int
	cfg  Config
	load WorkloadConfig
}

// traceReplays are sized so each exercises what the name says: the
// monolithic ones blow their node budgets and decide by witnesses, and
// mono-village, shaped like the village_churn serving workload, pins the
// one-zone placement rule (a first-fit re-stitch of its single zone diverges
// at call-38); the zoned one routes across several 250 m zones under a cap
// tight enough that a zone's stitch fails with later zones still unsolved
// (48 such decisions when recorded, counted by instrumenting the stitch loop;
// 135 in the classed replay, preemption retries included); the classed one
// admits by eviction and rolls failed preemption searches back. Every solve
// is bounded by a node budget with one worker and no time limit, so a trace
// is a property of the input, not of the host.
func traceReplays() []traceReplay {
	return []traceReplay{
		{
			name: "mono-3x4", w: 3, h: 4,
			cfg: Config{MaxWindow: 24, MILP: milp.Options{MaxNodes: 8}},
			load: WorkloadConfig{Calls: 150, ArrivalRate: 16, MeanHolding: 500 * time.Millisecond,
				SlotsPerLink: 2, Seed: 42, ToGateway: true},
		},
		{
			name: "mono-village", w: 3, h: 4,
			cfg: Config{MaxWindow: 32, MILP: milp.Options{MaxNodes: 8}},
			load: WorkloadConfig{Calls: 400, ArrivalRate: 16, MeanHolding: 500 * time.Millisecond,
				SlotsPerLink: 1, Seed: 42},
		},
		{
			name: "zoned-8x2", w: 8, h: 2,
			cfg: Config{MaxWindow: 12, Zoned: true, ZoneSize: 250,
				MILP: milp.Options{MaxNodes: 60}},
			load: WorkloadConfig{Calls: 120, ArrivalRate: 30, MeanHolding: 400 * time.Millisecond,
				SlotsPerLink: 1, Seed: 7},
		},
		{
			name: "zoned-classed-preempt-8x2", w: 8, h: 2,
			cfg: Config{MaxWindow: 14, Zoned: true, ZoneSize: 250, UGSDeadline: 6, RtPSWindow: 10, Preempt: true,
				MILP: milp.Options{MaxNodes: 60}},
			load: WorkloadConfig{Calls: 140, ArrivalRate: 30, MeanHolding: 600 * time.Millisecond,
				SlotsPerLink: 1, Seed: 11,
				ClassMix: []ClassShare{
					{Class: ClassUGS, Weight: 0.35},
					{Class: ClassRtPS, Weight: 0.2, SlotsPerLink: 2},
					{Class: ClassNrtPS, Weight: 0.2, SlotsPerLink: 2},
					{Class: ClassBE, Weight: 0.25},
				}},
		},
	}
}

// replayTrace serves r's workload one event at a time and writes one line
// per decision, then the final canonical schedule and the tallies. After
// every event the engine must pass Check and keep its window within the cap,
// so every witness admission of a replay is checked where it happens. With
// defragEvery > 0 it also runs TryDefrag after every defragEvery-th event and
// writes the slots won and the window after the pass.
func replayTrace(t *testing.T, sb *strings.Builder, r traceReplay, defragEvery int) {
	t.Helper()
	topo, g := testMesh(t, r.w, r.h)
	r.cfg.Graph, r.cfg.Frame = g, testFrame(t, 32)
	e, err := New(r.cfg)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	r.load.Topo = topo
	w, err := Generate(r.load)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	ctx := context.Background()
	fmt.Fprintf(sb, "== %s\n", r.name)
	var replay ServeStats
	for i, ev := range w.Events {
		if !ev.Arrive {
			if replay.Depart(ev.Flow.ID) {
				if err := e.Release(ev.Flow.ID); err != nil {
					t.Fatalf("%s: release %s: %v", r.name, ev.Flow.ID, err)
				}
			}
		} else {
			d, err := e.Admit(ctx, ev.Flow)
			if err != nil {
				t.Fatalf("%s: admit %s: %v", r.name, ev.Flow.ID, err)
			}
			replay.Record(ev.Flow, d)
			fmt.Fprintf(sb, "%s %v %v win=%d solved=%d pivots=%d preempted=%v\n",
				ev.Flow.ID, d.Admitted, d.Tier, d.Window, d.Solved, d.Pivots, d.Preempted)
		}
		if defragEvery > 0 && i%defragEvery == defragEvery-1 {
			won, err := e.TryDefrag(ctx)
			if err != nil {
				t.Fatalf("%s: defrag after event %d: %v", r.name, i, err)
			}
			fmt.Fprintf(sb, "defrag@%d won=%d win=%d\n", i, won, e.Window())
		}
		if err := e.Check(); err != nil {
			t.Fatalf("%s: after event %d: %v", r.name, i, err)
		}
		if win := e.Window(); win > r.cfg.MaxWindow {
			t.Fatalf("%s: after event %d: window %d beyond cap %d", r.name, i, win, r.cfg.MaxWindow)
		}
	}
	fmt.Fprintf(sb, "schedule: %v\n", canonical(e.Snapshot().Assignments))
	st := e.Stats()
	fmt.Fprintf(sb, "stats: fast=%d warm=%d cold=%d rejected=%d satisficed=%d greedy=%d preempt=%d/%d/%d\n",
		st.Fast, st.Warm, st.Cold, st.Rejected, st.Satisficed, st.ZoneGreedy,
		st.PreemptAttempts, st.PreemptAdmits, st.PreemptEvicted)
	if defragEvery > 0 {
		fmt.Fprintf(sb, "defrags: %d (%d slots)\n", st.Defrags, st.DefragSlots)
	}
}

// TestDecisionTraceGolden pins single-caller behaviour decision by decision:
// the three seeded replays, whose every (Admitted, Tier, Window, Solved,
// Pivots, Preempted) and final canonical schedule must equal the recorded
// trace.
func TestDecisionTraceGolden(t *testing.T) {
	var sb strings.Builder
	for _, r := range traceReplays() {
		replayTrace(t, &sb, r, 0)
	}
	checkGolden(t, "decision_trace.golden", sb.String())
}

// TestDefragTraceGolden pins the solver-driven defragmentation: every replay
// with a TryDefrag pass after every 7th event, whose won slots, windows and
// final canonical schedule must equal the recorded trace.
func TestDefragTraceGolden(t *testing.T) {
	var sb strings.Builder
	for _, r := range traceReplays() {
		replayTrace(t, &sb, r, 7)
	}
	checkGolden(t, "defrag_trace.golden", sb.String())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("trace diverges from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("trace has %d lines, %s has %d", len(gl), path, len(wl))
}
