package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

func frame(slots int) tdma.FrameConfig {
	return tdma.FrameConfig{
		FrameDuration: time.Duration(slots) * time.Millisecond,
		DataSlots:     slots,
	}
}

// unitProblem builds a Problem with unit demand on every link of net.
func unitProblem(t *testing.T, net *topology.Network, model conflict.Model, slots int) *schedule.Problem {
	t.Helper()
	g, err := conflict.Build(net, conflict.Options{Model: model, InterferenceRange: 250})
	if err != nil {
		t.Fatal(err)
	}
	demand := make(map[topology.LinkID]int)
	for _, l := range net.Links() {
		demand[l.ID] = 1
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: slots}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// randomProblem builds a RandomDisk mesh with seed-derived demands in
// 1..maxDemand on a deterministic ~2/3 subset of links.
func randomProblem(t *testing.T, n int, side, commRange float64, seed int64, slots, maxDemand int) *schedule.Problem {
	t.Helper()
	net, err := topology.RandomDisk(n, side, commRange, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	demand := make(map[topology.LinkID]int)
	for _, l := range net.Links() {
		if rng.Intn(3) > 0 { // ~2/3 of links active
			demand[l.ID] = 1 + rng.Intn(maxDemand)
		}
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: slots}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// chainProblem builds an n-node chain with seed-derived demands in
// 1..maxDemand on every forward link (seed 0 = unit demand).
func chainProblem(t *testing.T, n int, seed int64, maxDemand, slots int) *schedule.Problem {
	t.Helper()
	net, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := unitProblem(t, net, conflict.ModelTwoHop, slots)
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		for _, l := range p.ActiveLinks() {
			p.Demand[l] = 1 + rng.Intn(maxDemand)
		}
	}
	return p
}

func TestDecompose(t *testing.T) {
	// 4x4 grid, 100 m spacing: zone size 150 m gives a 3x3 cell layout
	// with several non-empty zones.
	net, err := topology.Grid(4, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := unitProblem(t, net, conflict.ModelTwoHop, 64)
	d, err := Decompose(p, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Zones) < 2 {
		t.Fatalf("want multiple zones, got %d", len(d.Zones))
	}
	// Every active link appears in exactly one zone, matching ZoneOf.
	count := 0
	for zi := range d.Zones {
		z := &d.Zones[zi]
		if len(z.Links) != len(z.Interior)+len(z.Halo) {
			t.Fatalf("zone %d: %d links != %d interior + %d halo",
				zi, len(z.Links), len(z.Interior), len(z.Halo))
		}
		for _, l := range z.Links {
			if d.ZoneOf(l) != zi {
				t.Fatalf("link %d: ZoneOf=%d, found in zone %d", l, d.ZoneOf(l), zi)
			}
			count++
		}
	}
	if want := len(p.ActiveLinks()); count != want {
		t.Fatalf("zones cover %d links, want %d", count, want)
	}
	// Halo classification is exact: recompute from the conflict graph.
	for zi := range d.Zones {
		for _, l := range d.Zones[zi].Interior {
			p.Graph.VisitNeighbors(l, func(nb topology.LinkID) bool {
				if zo := d.ZoneOf(nb); zo >= 0 && zo != zi {
					t.Fatalf("interior link %d of zone %d conflicts with link %d of zone %d",
						l, zi, nb, zo)
				}
				return true
			})
		}
	}
}

func TestDecomposeSingleZone(t *testing.T) {
	net, err := topology.Chain(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := unitProblem(t, net, conflict.ModelTwoHop, 32)
	d, err := Decompose(p, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Zones) != 1 {
		t.Fatalf("want 1 zone, got %d", len(d.Zones))
	}
	if h := len(d.Zones[0].Halo); h != 0 {
		t.Fatalf("single zone has %d halo links, want 0", h)
	}
}

func TestDecomposeBadZoneSize(t *testing.T) {
	// meshd's 4x6 grid at 100 m spacing, every link active.
	net, err := topology.Grid(4, 6, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := unitProblem(t, net, conflict.ModelTwoHop, 32)
	// NaN passed a plain `< 0` check and went on to index cells by int(x/NaN).
	// At 1e-7 m the packed cell keys overflowed into negative columns out of
	// row-major order; at 1e-300 the float-to-int conversion overflowed and
	// 24 transmitters landed in 2 zones.
	for _, size := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e-300, math.SmallestNonzeroFloat64} {
		if _, err := Decompose(p, size); !errors.Is(err, ErrBadZone) {
			t.Errorf("zone size %v: got %v, want ErrBadZone", size, err)
		}
	}
	// The smallest sizes that still key: one zone per transmitter, each cell
	// inside the grid, zones in row-major cell order.
	for _, size := range []float64{1e-6, 500.0 / (1 << 31) * 1.01} {
		d, err := Decompose(p, size)
		if err != nil {
			t.Fatalf("zone size %v: %v", size, err)
		}
		if len(d.Zones) != net.NumNodes() {
			t.Errorf("zone size %v: %d zones, want one per node (%d)", size, len(d.Zones), net.NumNodes())
		}
		for zi, z := range d.Zones {
			if z.Col < 0 || z.Col >= d.Cols || z.Row < 0 || z.Row >= d.Rows {
				t.Fatalf("zone size %v: zone %d cell (%d,%d) outside %dx%d grid", size, zi, z.Col, z.Row, d.Cols, d.Rows)
			}
			if zi == 0 {
				continue
			}
			if prev := d.Zones[zi-1]; prev.Row > z.Row || prev.Row == z.Row && prev.Col >= z.Col {
				t.Fatalf("zone size %v: zone %d (%d,%d) after (%d,%d): not row-major", size, zi, z.Col, z.Row, prev.Col, prev.Row)
			}
		}
	}
}

// TestDifferentialPartitionedVsMonolithic proves the stitched schedule is
// conflict-free, meets every demand, and stays within 10% of the monolithic
// MinSlots optimum on every size both paths can solve.
func TestDifferentialPartitionedVsMonolithic(t *testing.T) {
	opts := milp.Options{MaxNodes: 200_000}
	cases := []struct {
		name     string
		problem  func(t *testing.T) *schedule.Problem
		zoneSize float64
	}{
		{"chain8/2zones", func(t *testing.T) *schedule.Problem {
			return chainProblem(t, 8, 0, 1, 32)
		}, 350},
		{"chain12/3zones", func(t *testing.T) *schedule.Problem {
			return chainProblem(t, 12, 0, 1, 32)
		}, 380},
		{"chain10/demand3", func(t *testing.T) *schedule.Problem {
			return chainProblem(t, 10, 21, 3, 48)
		}, 350},
		{"chain16/4zones", func(t *testing.T) *schedule.Problem {
			return chainProblem(t, 16, 0, 1, 32)
		}, 420},
		{"chain9/demand3", func(t *testing.T) *schedule.Problem {
			return chainProblem(t, 9, 17, 3, 48)
		}, 320},
		{"disk7/seed3", func(t *testing.T) *schedule.Problem {
			return randomProblem(t, 7, 700, 350, 3, 32, 1)
		}, 330},
		{"disk8/auto", func(t *testing.T) *schedule.Problem {
			return randomProblem(t, 8, 800, 350, 11, 32, 1)
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.problem(t)
			if n := len(p.ActiveLinks()); n > 80 {
				t.Fatalf("case too large for the monolithic oracle: %d active links", n)
			}
			cfg := frame(p.FrameSlots)
			monoWin, monoSched, _, err := schedule.MinSlots(p, cfg, opts)
			if err != nil {
				if errors.Is(err, milp.ErrLimit) {
					// The reference, not the code under test, ran out of
					// budget — typical under -race, which slows the
					// branch-and-bound an order of magnitude.
					t.Skipf("monolithic oracle exceeded its budget: %v", err)
				}
				t.Fatalf("monolithic MinSlots: %v", err)
			}
			if err := monoSched.Validate(p.Graph); err != nil {
				t.Fatalf("monolithic schedule invalid: %v", err)
			}
			res, err := MinSlots(p, cfg, Options{ZoneSize: tc.zoneSize, MILP: opts})
			if err != nil {
				t.Fatalf("partitioned MinSlots: %v", err)
			}
			if res.Zones < 2 && tc.zoneSize > 0 {
				t.Logf("note: zone size %g produced a single zone", tc.zoneSize)
			}
			if err := res.Schedule.Validate(p.Graph); err != nil {
				t.Fatalf("stitched schedule invalid: %v", err)
			}
			for l, d := range p.Demand {
				if got := res.Schedule.LinkSlots(l); got < d {
					t.Fatalf("link %d: got %d slots, demand %d", l, got, d)
				}
			}
			bound := int(math.Ceil(1.1 * float64(monoWin)))
			if res.WindowSlots > bound {
				t.Errorf("stitched window %d exceeds 110%% of monolithic %d (bound %d; zones=%d halo=%d repairs=%d)",
					res.WindowSlots, monoWin, bound, res.Zones, res.HaloLinks, res.Repairs)
			}
			if res.WindowSlots < monoWin {
				t.Errorf("stitched window %d below monolithic optimum %d: oracle or stitch is wrong",
					res.WindowSlots, monoWin)
			}
			t.Logf("zones=%d halo=%d/%d repairs=%d ilps=%d window=%d vs mono=%d",
				res.Zones, res.HaloLinks, res.HaloLinks+res.InteriorLinks,
				res.Repairs, res.ILPsSolved, res.WindowSlots, monoWin)
		})
	}
}

// TestDifferentialPartitionedWorkers proves bit-for-bit determinism of the
// stitched schedule across worker counts (run under -race by
// `make differential`).
func TestDifferentialPartitionedWorkers(t *testing.T) {
	opts := milp.Options{MaxNodes: 200_000}
	for _, seed := range []int64{2, 5, 9} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := randomProblem(t, 14, 900, 300, seed, 96, 3)
			cfg := frame(p.FrameSlots)
			var refAssign []tdma.Assignment
			var refStats Result
			for i, workers := range []int{1, 4, 16} {
				res, err := MinSlots(p, cfg, Options{ZoneSize: 300, Workers: workers, MILP: opts})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				// Compare the observable result, not lazily-populated
				// schedule caches: assignments plus the stats.
				stats := *res
				stats.Schedule = nil
				if i == 0 {
					refAssign = res.Schedule.Assignments
					refStats = stats
					continue
				}
				if !reflect.DeepEqual(refAssign, res.Schedule.Assignments) {
					t.Fatalf("workers=%d: assignments differ from workers=1", workers)
				}
				if !reflect.DeepEqual(refStats, stats) {
					t.Fatalf("workers=%d: result stats differ: %+v vs %+v", workers, refStats, stats)
				}
			}
		})
	}
}

// TestPartitionedGreedyFallback forces the per-zone branch-and-bound budget
// to zero so every zone falls back to the greedy coloring; the stitched
// schedule must still be valid.
func TestPartitionedGreedyFallback(t *testing.T) {
	p := randomProblem(t, 12, 800, 320, 7, 64, 3)
	cfg := frame(p.FrameSlots)
	res, err := MinSlots(p, cfg, Options{ZoneSize: 380, MILP: milp.Options{MaxNodes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.GreedyFallbacks == 0 {
		t.Fatalf("MaxNodes=1 solved all %d zones exactly; want at least one greedy fallback", res.Zones)
	}
	if err := res.Schedule.Validate(p.Graph); err != nil {
		t.Fatalf("fallback schedule invalid: %v", err)
	}
	for l, d := range p.Demand {
		if got := res.Schedule.LinkSlots(l); got < d {
			t.Fatalf("link %d: got %d slots, demand %d", l, got, d)
		}
	}
}

// TestPartitionedInfeasible: demand that cannot fit any window must surface
// ErrInfeasible, not a corrupt schedule.
func TestPartitionedInfeasible(t *testing.T) {
	net, err := topology.Chain(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	demand := make(map[topology.LinkID]int)
	for _, l := range net.Links() {
		demand[l.ID] = 4 // 6 links x 4 slots, all mutually conflicting in a 4-node chain
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: 8}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err = MinSlots(p, frame(8), Options{ZoneSize: 10_000})
	if err == nil {
		t.Fatal("want error for infeasible demands")
	}
	if !errors.Is(err, ErrInfeasible) && !errors.Is(err, schedule.ErrInfeasible) {
		t.Fatalf("got %v, want infeasible", err)
	}
}

// TestPartitionedEmptyDemand: a problem with no active links stitches to an
// empty schedule of window 0.
func TestPartitionedEmptyDemand(t *testing.T) {
	net, err := topology.Chain(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	p := &schedule.Problem{Graph: g, Demand: map[topology.LinkID]int{}, FrameSlots: 8}
	res, err := MinSlots(p, frame(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowSlots != 0 || res.Zones != 0 || len(res.Schedule.Assignments) != 0 {
		t.Fatalf("want empty schedule, got window=%d zones=%d assignments=%d",
			res.WindowSlots, res.Zones, len(res.Schedule.Assignments))
	}
}
