// Micro-benchmarks of the core algorithms and hot paths (`make bench`). They
// are for measuring while you work: the repository's timing record is
// benchmark/ (BENCHMARK.json), and the evaluation tables R1-R21 are pinned as
// goldens by internal/experiments' TestRTableGolden.
package main

import (
	"testing"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/core"
	"wimesh/internal/lp"
	"wimesh/internal/mac"
	"wimesh/internal/mac/dcf"
	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

func chainProblem(b *testing.B, n int, frame tdma.FrameConfig) *schedule.Problem {
	b.Helper()
	topo, err := topology.Chain(n, 100)
	if err != nil {
		b.Fatal(err)
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		b.Fatal(err)
	}
	path, err := topo.ShortestPath(topology.NodeID(n-1), 0)
	if err != nil {
		b.Fatal(err)
	}
	demand := make(map[topology.LinkID]int)
	for _, l := range path {
		demand[l] = 1
	}
	return &schedule.Problem{Graph: g, Demand: demand, FrameSlots: frame.DataSlots,
		Flows: []schedule.FlowRequirement{{Path: path}}}
}

func BenchmarkOrderToSchedule16Hops(b *testing.B) {
	frame := tdma.FrameConfig{FrameDuration: 40 * time.Millisecond, DataSlots: 32}
	p := chainProblem(b, 17, frame)
	o := schedule.PathMajorOrder(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.OrderToSchedule(p, o, frame.DataSlots, frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinSlotsILPChain6(b *testing.B) {
	frame := tdma.FrameConfig{FrameDuration: 20 * time.Millisecond, DataSlots: 16}
	p := chainProblem(b, 6, frame)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := schedule.MinSlots(p, frame, milp.Options{MaxNodes: 100_000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyColoringChain24(b *testing.B) {
	frame := tdma.FrameConfig{FrameDuration: 80 * time.Millisecond, DataSlots: 64}
	p := chainProblem(b, 24, frame)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Greedy(p, frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConflictGraphRandom20(b *testing.B) {
	topo, err := topology.RandomDisk(20, 800, 300, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConflictBuild measures conflict-graph construction: the O(L^2)
// pairwise loop with precomputed node relations and bitset adjacency.
func BenchmarkConflictBuild(b *testing.B) {
	chain, err := topology.Chain(32, 100)
	if err != nil {
		b.Fatal(err)
	}
	disk, err := topology.RandomDisk(20, 800, 300, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo *topology.Network
	}{{"chain32", chain}, {"disk20", disk}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := conflict.Build(tc.topo, conflict.Options{Model: conflict.ModelTwoHop}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConflictsQuery measures the Conflicts hot path (one bitset probe
// per query) over every link pair of a random mesh.
func BenchmarkConflictsQuery(b *testing.B) {
	topo, err := topology.RandomDisk(20, 800, 300, 3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		b.Fatal(err)
	}
	n := topology.LinkID(g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for a := topology.LinkID(0); a < n; a++ {
			for c := topology.LinkID(0); c < n; c++ {
				if g.Conflicts(a, c) {
					hits++
				}
			}
		}
	}
	if hits == 0 {
		b.Fatal("no conflicts in random mesh")
	}
}

func BenchmarkSimplexLP(b *testing.B) {
	// A 20-var, 25-row LP representative of relaxations in the search.
	build := func() *lp.Problem {
		p := lp.NewProblem(lp.Maximize, 20)
		for j := 0; j < 20; j++ {
			if err := p.SetObjCoef(j, float64(j%7+1)); err != nil {
				b.Fatal(err)
			}
			if err := p.SetUpper(j, 10); err != nil {
				b.Fatal(err)
			}
		}
		for r := 0; r < 25; r++ {
			coef := make(map[int]float64, 4)
			for k := 0; k < 4; k++ {
				coef[(r*3+k*5)%20] = float64(k + 1)
			}
			if err := p.AddConstraint(coef, lp.LE, float64(20+r)); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := lp.Compile(build())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lp.NewSolver().Solve(c, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPSolve measures the steady-state simplex hot path of the
// branch-and-bound search: one Compile up front, then repeated solves from a
// reused workspace. Pivoting itself is allocation-free; the reported allocs
// are the returned Solution.
func BenchmarkLPSolve(b *testing.B) {
	p := lp.NewProblem(lp.Maximize, 20)
	for j := 0; j < 20; j++ {
		if err := p.SetObjCoef(j, float64(j%7+1)); err != nil {
			b.Fatal(err)
		}
		if err := p.SetUpper(j, 10); err != nil {
			b.Fatal(err)
		}
	}
	for r := 0; r < 25; r++ {
		coef := make(map[int]float64, 4)
		for k := 0; k < 4; k++ {
			coef[(r*3+k*5)%20] = float64(k + 1)
		}
		if err := p.AddConstraint(coef, lp.LE, float64(20+r)); err != nil {
			b.Fatal(err)
		}
	}
	c, err := lp.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	solver := lp.NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(c, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMILPWarm runs a window-feasibility integer program through the
// warm-started branch-and-bound (children re-solve from the parent's basis
// snapshot).
func BenchmarkMILPWarm(b *testing.B) {
	frame := tdma.FrameConfig{FrameDuration: 80 * time.Millisecond, DataSlots: 64}
	p := chainProblem(b, 12, frame)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.SolveWindow(p, 3, frame,
			milp.Options{MaxNodes: 200_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinSlotsSearch measures the incremental minimum-window search:
// one ILP build, galloping + binary probes re-solving after bound/coefficient
// mutation.
func BenchmarkMinSlotsSearch(b *testing.B) {
	frame := tdma.FrameConfig{FrameDuration: 80 * time.Millisecond, DataSlots: 64}
	p := chainProblem(b, 16, frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := schedule.MinSlots(p, frame, milp.Options{MaxNodes: 200_000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.After(time.Microsecond, func() {}); err != nil {
			b.Fatal(err)
		}
		k.Step()
	}
}

// BenchmarkKernelAfterStep measures the kernel's schedule+execute hot path;
// steady state must be allocation-free (slab + free list + value heap).
func BenchmarkKernelAfterStep(b *testing.B) {
	k := sim.NewKernel()
	fn := func() {}
	// Warm the slab and heap so the loop measures steady state.
	for i := 0; i < 256; i++ {
		if _, err := k.After(time.Microsecond, fn); err != nil {
			b.Fatal(err)
		}
		k.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.After(time.Microsecond, fn); err != nil {
			b.Fatal(err)
		}
		k.Step()
	}
}

// BenchmarkKernelCancel measures O(1) cancellation with tombstone
// compaction: each iteration schedules and cancels one event against a
// standing queue.
func BenchmarkKernelCancel(b *testing.B) {
	k := sim.NewKernel()
	fn := func() {}
	// A standing population of live events so cancels hit a realistic heap.
	for i := 0; i < 512; i++ {
		if _, err := k.After(time.Duration(i+1)*time.Second, fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := k.After(time.Millisecond, fn)
		if err != nil {
			b.Fatal(err)
		}
		if !k.Cancel(id) {
			b.Fatal("cancel failed")
		}
	}
}

// BenchmarkMediumTransmit measures one full transmit+finish cycle on the
// dense bitset medium; steady state must be allocation-free (pooled
// transmissions, precomputed audiences).
func BenchmarkMediumTransmit(b *testing.B) {
	topo := topology.NewNetwork()
	for i := 0; i < 10; i++ {
		topo.AddNode(float64(i)*100, 0)
	}
	k := sim.NewKernel()
	m, err := mac.NewMedium(topo, k, 250)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetReceiver(1, func(mac.Delivery) {}); err != nil {
		b.Fatal(err)
	}
	frame := mac.Frame{From: 0, To: 1, Bytes: 1500}
	// Warm the transmission pool.
	for i := 0; i < 64; i++ {
		if err := m.Transmit(frame, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Transmit(frame, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
}

// BenchmarkDCFSaturation measures the full DCF data plane under contention:
// one saturated 10-sender star run per iteration.
func BenchmarkDCFSaturation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := topology.NewNetwork()
		rx := topo.AddNode(0, 0)
		senders := make([]topology.NodeID, 10)
		for j := range senders {
			senders[j] = topo.AddNode(10+float64(j), 10)
		}
		k := sim.NewKernel()
		nw, err := dcf.New(dcf.Config{Seed: 17, QueueCap: 1 << 16}, topo, k, 500, nil)
		if err != nil {
			b.Fatal(err)
		}
		for fi, s := range senders {
			for j := 0; j < 100; j++ {
				if err := nw.Inject(&dcf.Packet{FlowID: fi, Seq: j,
					Route: []topology.NodeID{s, rx}, Bytes: 1500}); err != nil {
					b.Fatal(err)
				}
			}
		}
		k.RunUntil(500 * time.Millisecond)
	}
}

// BenchmarkCapacitySearch times the analytic-screened galloping capacity
// search on the chain6 topology, for both MACs.
func BenchmarkCapacitySearch(b *testing.B) {
	for _, mac := range []string{"tdma", "dcf"} {
		b.Run(mac, func(b *testing.B) {
			topo, err := topology.Chain(6, 100)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.NewSystem(topo)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.CapacityConfig{
				MaxCalls: 40,
				Run:      core.RunConfig{Duration: 3 * time.Second, Seed: 11},
			}
			var calls int
			for i := 0; i < b.N; i++ {
				var res *core.CapacityResult
				if mac == "tdma" {
					res, err = sys.VoIPCapacityTDMA(cfg)
				} else {
					res, err = sys.VoIPCapacityDCF(cfg)
				}
				if err != nil {
					b.Fatal(err)
				}
				calls = res.Calls
			}
			b.ReportMetric(float64(calls), "calls")
		})
	}
}
