package partition

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/minslots.golden from this run")

// flowChainProblem builds a 10-node chain carrying five routed flows, each
// with one slot per hop and a delay bound: some stay inside one 350 m zone
// (their delay rows reach the zone models), others cross zones.
func flowChainProblem(t *testing.T) *schedule.Problem {
	t.Helper()
	net, err := topology.Chain(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	p := &schedule.Problem{Graph: g, Demand: make(map[topology.LinkID]int), FrameSlots: 48}
	for _, f := range []struct {
		src, dst topology.NodeID
		bound    int
	}{{0, 2, 20}, {4, 6, 24}, {9, 7, 20}, {2, 7, 40}, {8, 3, 40}} {
		path, err := net.ShortestPath(f.src, f.dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range path {
			p.Demand[l]++
		}
		p.Flows = append(p.Flows, schedule.FlowRequirement{Path: path, BoundSlots: f.bound})
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMinSlotsGolden pins partitioned plans byte for byte: the full stitched
// assignments plus the decomposition and solve counts, on seeded random disks
// at two zone sizes, a zone past the pair gate, a budget of one node (every
// exact zone falls back to greedy) and a chain whose flows carry delay
// bounds. Every solve is bounded by a node budget, never a time limit.
func TestMinSlotsGolden(t *testing.T) {
	cases := []struct {
		name string
		p    func(t *testing.T) *schedule.Problem
		zone float64
		opts milp.Options
	}{
		{"disk14/zone300", func(t *testing.T) *schedule.Problem { return randomProblem(t, 14, 900, 300, 5, 96, 3) },
			300, milp.Options{MaxNodes: 20_000}},
		{"disk14/zone450", func(t *testing.T) *schedule.Problem { return randomProblem(t, 14, 900, 300, 5, 96, 3) },
			450, milp.Options{MaxNodes: 300}},
		{"disk16/gated", func(t *testing.T) *schedule.Problem { return randomProblem(t, 16, 700, 300, 4, 128, 1) },
			10_000, milp.Options{MaxNodes: 20_000}},
		{"disk12/budget1", func(t *testing.T) *schedule.Problem { return randomProblem(t, 12, 800, 320, 7, 64, 3) },
			380, milp.Options{MaxNodes: 1}},
		{"chain10/flows", flowChainProblem, 350, milp.Options{MaxNodes: 20_000}},
	}
	var sb strings.Builder
	for _, tc := range cases {
		p := tc.p(t)
		res, err := MinSlots(p, frame(p.FrameSlots), Options{ZoneSize: tc.zone, MILP: tc.opts})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		blocks := slices.Clone(res.Schedule.Assignments)
		slices.SortFunc(blocks, func(a, b tdma.Assignment) int {
			if a.Link != b.Link {
				return int(a.Link - b.Link)
			}
			return a.Start - b.Start
		})
		fmt.Fprintf(&sb, "== %s\nzones=%d interior=%d halo=%d repairs=%d ilps=%d greedy=%d window=%d\nschedule: %v\n",
			tc.name, res.Zones, res.InteriorLinks, res.HaloLinks, res.Repairs, res.ILPsSolved,
			res.GreedyFallbacks, res.WindowSlots, blocks)
	}
	path := filepath.Join("testdata", "minslots.golden")
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
	if got := sb.String(); got != string(want) {
		t.Fatalf("plans differ from %s:\n got\n%s\n want\n%s", path, got, want)
	}
}
