package admit

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// benchSetup builds a 3x3 grid engine with a resident base load, returning
// the engine, the bench flow (which always needs the solver: its per-link
// demand exceeds the window slack), and the aggregate demand including it.
func benchSetup(b *testing.B, compactEvery int) (*Engine, Flow, map[topology.LinkID]int, tdma.FrameConfig) {
	b.Helper()
	topo, err := topology.Grid(3, 3, 100)
	if err != nil {
		b.Fatal(err)
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelGeometric, InterferenceRange: 250})
	if err != nil {
		b.Fatal(err)
	}
	frame := tdma.FrameConfig{FrameDuration: 20 * time.Millisecond, DataSlots: 64}
	e, err := New(Config{Graph: g, Frame: frame,
		MILP: milp.Options{MaxNodes: 200_000}})
	if err != nil {
		b.Fatal(err)
	}
	e.compactEvery = compactEvery
	ctx := context.Background()
	for i, dst := range []topology.NodeID{8, 6, 2} {
		path, err := topo.ShortestPath(0, dst)
		if err != nil {
			b.Fatal(err)
		}
		slots := make([]int, len(path))
		for j := range slots {
			slots[j] = 2
		}
		if dec, err := e.Admit(ctx, Flow{ID: FlowID(fmt.Sprintf("base-%d", i)), Path: path, Slots: slots}); err != nil || !dec.Admitted {
			b.Fatalf("base admit %d: %+v, %v", i, dec, err)
		}
	}
	path, err := topo.ShortestPath(3, 5)
	if err != nil {
		b.Fatal(err)
	}
	slots := make([]int, len(path))
	for j := range slots {
		slots[j] = 4
	}
	f := Flow{ID: "bench", Path: path, Slots: slots}
	demand := make(map[topology.LinkID]int)
	for _, bf := range e.flows {
		for l, d := range demandOf(bf) {
			demand[l] += d
		}
	}
	for l, d := range demandOf(f) {
		demand[l] += d
	}
	return e, f, demand, frame
}

// BenchmarkAdmitRelease compares one admission's cost across the repair
// tiers against the from-scratch re-plan the engine replaces:
//
//   - warm-solve: Admit+Release in a steady-state churn cycle, so every
//     admission is a hinted re-solve of the persistent model.
//   - cold-replan: the same decision answered the pre-engine way — build
//     the ILP model from scratch and run the full MinSlots window search
//     over the identical aggregate demand.
//   - fast: Admit+Release of a flow the first-fit tier absorbs, for scale.
func BenchmarkAdmitRelease(b *testing.B) {
	b.Run("warm-solve", func(b *testing.B) {
		// Compact on every release: the freed slots do not linger as
		// in-window slack, so each admission must re-solve (fastpath slack
		// is benchmarked separately below).
		e, f, _, _ := benchSetup(b, 1)
		ctx := context.Background()
		// One untimed cycle so the support set includes the bench flow's
		// links: iteration one would otherwise pay the cold rebuild.
		if dec, err := e.Admit(ctx, f); err != nil || !dec.Admitted {
			b.Fatalf("prewarm: %+v, %v", dec, err)
		}
		if err := e.Release(f.ID); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec, err := e.Admit(ctx, f)
			if err != nil || !dec.Admitted {
				b.Fatalf("admit: %+v, %v", dec, err)
			}
			if dec.Tier != TierWarm || dec.Solved == 0 {
				b.Fatalf("iteration hit tier %v (%d solves), want a warm solve", dec.Tier, dec.Solved)
			}
			if err := e.Release(f.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-replan", func(b *testing.B) {
		_, _, demand, frame := benchSetup(b, -1)
		opts := milp.Options{MaxNodes: 200_000}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := &schedule.Problem{Graph: benchGraph(b), Demand: demand, FrameSlots: frame.DataSlots}
			if _, _, _, err := schedule.MinSlots(p, frame, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		e, f, _, _ := benchSetup(b, -1)
		ctx := context.Background()
		// Grow the window with the solver once, release, and refill the
		// slack with a smaller flow: pure first-fit both ways.
		if dec, err := e.Admit(ctx, f); err != nil || !dec.Admitted {
			b.Fatalf("grow: %+v, %v", dec, err)
		}
		if err := e.Release(f.ID); err != nil {
			b.Fatal(err)
		}
		small := Flow{ID: "small", Path: f.Path, Slots: make([]int, len(f.Path))}
		for j := range small.Slots {
			small.Slots[j] = 1
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec, err := e.Admit(ctx, small)
			if err != nil || !dec.Admitted {
				b.Fatalf("admit: %+v, %v", dec, err)
			}
			if dec.Tier != TierFast {
				b.Fatalf("iteration hit tier %v, want fast", dec.Tier)
			}
			if err := e.Release(small.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchGraph rebuilds the conflict graph inside the timed loop's problem
// construction path; it is deliberately NOT part of the cold re-plan cost
// (the pre-engine planner also kept its graph).
var benchG *conflict.Graph

func benchGraph(b *testing.B) *conflict.Graph {
	b.Helper()
	if benchG == nil {
		topo, err := topology.Grid(3, 3, 100)
		if err != nil {
			b.Fatal(err)
		}
		benchG, err = conflict.Build(topo, conflict.Options{Model: conflict.ModelGeometric, InterferenceRange: 250})
		if err != nil {
			b.Fatal(err)
		}
	}
	return benchG
}
