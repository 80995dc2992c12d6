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

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/decision_trace.golden from this run")

// TestDecisionTraceGolden pins single-caller behaviour decision by decision:
// three seeded replays whose every (Admitted, Tier, Window, Solved, Pivots,
// Preempted) and final canonical schedule must equal the recorded trace.
// Every solve is bounded by a node budget with one worker and no time limit,
// so the trace is a property of the input, not of the host. The replays are
// sized so each exercises what the name says: the monolithic one takes memo
// hits, satisficing fallbacks and budget rejections; the zoned one routes
// across several 250 m zones under a cap tight enough that a zone's stitch
// fails with later zones still unsolved (48 such decisions when recorded,
// counted by instrumenting the stitch loop; 135 in the classed replay,
// preemption retries included); the classed one admits by eviction and
// rolls failed preemption searches back.
func TestDecisionTraceGolden(t *testing.T) {
	replays := []struct {
		name string
		w, h int
		cfg  Config
		load WorkloadConfig
	}{
		{
			name: "mono-3x4", w: 3, h: 4,
			cfg: Config{MaxWindow: 24, MILP: milp.Options{MaxNodes: 8, Workers: 1}, BudgetRejects: true},
			load: WorkloadConfig{Calls: 150, ArrivalRate: 16, MeanHolding: 500 * time.Millisecond,
				SlotsPerLink: 2, Seed: 42, ToGateway: true},
		},
		{
			name: "zoned-8x2", w: 8, h: 2,
			cfg: Config{MaxWindow: 12, Zoned: true, ZoneSize: 250,
				MILP: milp.Options{MaxNodes: 60, Workers: 1}, BudgetRejects: true},
			load: WorkloadConfig{Calls: 120, ArrivalRate: 30, MeanHolding: 400 * time.Millisecond,
				SlotsPerLink: 1, Seed: 7},
		},
		{
			name: "zoned-classed-preempt-8x2", w: 8, h: 2,
			cfg: Config{MaxWindow: 14, Zoned: true, ZoneSize: 250, UGSDeadline: 6, RtPSWindow: 10, Preempt: true,
				MILP: milp.Options{MaxNodes: 60, Workers: 1}, BudgetRejects: true},
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
	var sb strings.Builder
	for _, r := range replays {
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
		fmt.Fprintf(&sb, "== %s\n", r.name)
		var replay ServeStats
		for _, ev := range w.Events {
			if !ev.Arrive {
				if replay.Depart(ev.Flow.ID) {
					if err := e.Release(ev.Flow.ID); err != nil {
						t.Fatalf("%s: release %s: %v", r.name, ev.Flow.ID, err)
					}
				}
				continue
			}
			d, err := e.Admit(context.Background(), ev.Flow)
			if err != nil {
				t.Fatalf("%s: admit %s: %v", r.name, ev.Flow.ID, err)
			}
			replay.Record(ev.Flow, d)
			fmt.Fprintf(&sb, "%s %v %v win=%d solved=%d pivots=%d preempted=%v\n",
				ev.Flow.ID, d.Admitted, d.Tier, d.Window, d.Solved, d.Pivots, d.Preempted)
		}
		if err := e.Check(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&sb, "schedule: %v\n", canonical(e.Snapshot().Assignments))
		st := e.Stats()
		fmt.Fprintf(&sb, "stats: fast=%d warm=%d cold=%d rejected=%d memo=%d satisficed=%d budget=%d greedy=%d preempt=%d/%d/%d\n",
			st.Fast, st.Warm, st.Cold, st.Rejected, st.MemoHits, st.Satisficed, st.BudgetRejected, st.ZoneGreedy,
			st.PreemptAttempts, st.PreemptAdmits, st.PreemptEvicted)
	}
	path := filepath.Join("testdata", "decision_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
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
