package admit

import (
	"context"
	"fmt"
	"testing"

	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/topology"
)

// TestCompactEveryBoundary pins the release-count trigger exactly: with the
// default cadence (64, every = 0 leaves it) the 63rd release must not compact
// and the 64th must, an explicit 64 behaves identically, and a negative value
// never compacts.
func TestCompactEveryBoundary(t *testing.T) {
	cases := []struct {
		name  string
		every int
		// wantAt is the release ordinal that triggers the first compaction
		// (0 = never compacts).
		wantAt int
	}{
		{"default-0-means-64", 0, 64},
		{"explicit-64", 64, 64},
		{"explicit-1", 1, 1},
		{"negative-never", -1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, g := testMesh(t, 2, 2)
			e, err := New(Config{
				Graph: g, Frame: testFrame(t, 128),
				MILP: milp.Options{MaxNodes: 50_000},
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.every != 0 {
				e.compactEvery = tc.every
			}
			path, err := topo.ShortestPath(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			const n = 64
			for i := 0; i < n; i++ {
				id := FlowID(fmt.Sprintf("f-%d", i))
				dec, err := e.Admit(ctx, Flow{ID: id, Path: path, Slots: []int{1}})
				if err != nil {
					t.Fatal(err)
				}
				if !dec.Admitted {
					t.Fatalf("flow %d rejected: 64 one-slot flows must fit a 128-slot frame", i)
				}
			}
			for i := 0; i < n; i++ {
				if err := e.Release(FlowID(fmt.Sprintf("f-%d", i))); err != nil {
					t.Fatal(err)
				}
				got := int(e.Stats().Compactions)
				want := 0
				if tc.wantAt > 0 {
					want = (i + 1) / tc.wantAt
				}
				if got != want {
					t.Fatalf("after release %d (every=%d): %d compactions, want %d",
						i+1, tc.every, got, want)
				}
			}
			if err := e.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDefragMono drives the monolithic defragmentation path: three
// all-conflicting flows pack to a 12-slot window, releasing the middle one
// leaves a 4-slot hole that in-place shrinking cannot reclaim, and TryDefrag
// recovers it exactly.
func TestDefragMono(t *testing.T) {
	topo, g := testMesh(t, 1, 4) // 4-node chain at 100 m: all links mutually conflict
	reg := obs.NewRegistry()
	e, err := New(Config{
		Graph: g, Frame: testFrame(t, 32),
		MILP:     milp.Options{MaxNodes: 100_000},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.compactEvery = -1 // isolate TryDefrag from release-triggered re-packs
	ctx := context.Background()
	for i, pair := range [][2]topology.NodeID{{0, 1}, {1, 2}, {2, 3}} {
		path, err := topo.ShortestPath(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		dec, err := e.Admit(ctx, Flow{ID: FlowID(fmt.Sprintf("f-%d", i)), Path: path, Slots: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Admitted {
			t.Fatalf("flow %d rejected", i)
		}
	}
	if w := e.Window(); w != 12 {
		t.Fatalf("window %d after three 4-slot conflicting flows, want 12", w)
	}
	if err := e.Release("f-1"); err != nil {
		t.Fatal(err)
	}
	if w := e.Window(); w != 12 {
		t.Fatalf("window %d after releasing the middle flow, want a fragmented 12", w)
	}

	won, err := e.TryDefrag(ctx)
	if err != nil {
		t.Fatalf("TryDefrag: %v", err)
	}
	if won != 4 {
		t.Fatalf("defrag won %d slots, want 4", won)
	}
	if w := e.Window(); w != 8 {
		t.Fatalf("window %d after defrag, want 8", w)
	}
	if err := e.Check(); err != nil {
		t.Fatalf("invariants after defrag swap: %v", err)
	}
	st := e.Stats()
	if st.Defrags != 1 || st.DefragSlots != 4 {
		t.Fatalf("Defrags=%d DefragSlots=%d, want 1/4", st.Defrags, st.DefragSlots)
	}

	// The 8-slot window is provably minimal (two conflicting 4-slot flows):
	// a second pass must find nothing and change nothing.
	won, err = e.TryDefrag(ctx)
	if err != nil {
		t.Fatalf("second TryDefrag: %v", err)
	}
	if won != 0 {
		t.Fatalf("second defrag won %d slots on a minimal schedule", won)
	}
	if w := e.Window(); w != 8 {
		t.Fatalf("window %d after no-op defrag, want 8", w)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["admit.defrag_win_slots"]; got != 4 {
		t.Errorf("admit.defrag_win_slots = %d, want 4: %v", got, snap.Counters)
	}
	if got := snap.Counters["admit.defrag"]; got != 1 {
		t.Errorf("admit.defrag = %d, want 1", got)
	}
	// The engine also admits after a defrag swap: the solver support must
	// have been marked dirty so the next warm solve rebuilds from truth.
	path, err := topo.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := e.Admit(ctx, Flow{ID: "post-defrag", Path: path, Slots: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatal("post-defrag admission rejected: 12 slots fit a 32-slot frame")
	}
	if err := e.Check(); err != nil {
		t.Fatalf("invariants after post-defrag admission: %v", err)
	}
}

// TestDefragShardedZoned drives the zoned defragmentation path: each
// isolated cluster fragments independently and one TryDefrag pass re-packs
// them all.
func TestDefragShardedZoned(t *testing.T) {
	topo, g := clusterMesh(t, 2)
	e, err := New(Config{
		Graph: g, Frame: testFrame(t, 32), MaxWindow: 16,
		Zoned: true, ZoneSize: 500,
		MILP: milp.Options{MaxNodes: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.compactEvery = -1
	ctx := context.Background()
	for c := 0; c < 2; c++ {
		base := topology.NodeID(c * 4)
		for i, dst := range []topology.NodeID{base + 1, base + 2, base + 3} {
			path, err := topo.ShortestPath(base, dst)
			if err != nil {
				t.Fatal(err)
			}
			slots := make([]int, len(path))
			for j := range slots {
				slots[j] = 4 / len(path) // 4 slots total per flow regardless of hops
			}
			id := FlowID(fmt.Sprintf("c%d-f%d", c, i))
			dec, err := e.Admit(ctx, Flow{ID: id, Path: path, Slots: slots})
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Admitted {
				t.Fatalf("cluster %d flow %d rejected", c, i)
			}
		}
	}
	before := e.Window()
	// Release each cluster's middle flow, leaving holes.
	if err := e.Release("c0-f1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Release("c1-f1"); err != nil {
		t.Fatal(err)
	}
	won, err := e.TryDefrag(ctx)
	if err != nil {
		t.Fatalf("TryDefrag: %v", err)
	}
	after := e.Window()
	if won != before-after {
		t.Fatalf("defrag reported %d slots won, window went %d -> %d", won, before, after)
	}
	if won <= 0 {
		t.Fatalf("zoned defrag won nothing: window %d -> %d", before, after)
	}
	if err := e.Check(); err != nil {
		t.Fatalf("invariants after zoned defrag: %v", err)
	}
	if st := e.Stats(); st.Defrags != 1 || st.DefragSlots != uint64(won) {
		t.Fatalf("Defrags=%d DefragSlots=%d, want 1/%d", st.Defrags, st.DefragSlots, won)
	}
}
