package experiments

import (
	"context"
	"fmt"
	"time"

	"wimesh/internal/admit"
	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/topology"
)

// R19 parameters: the serving-path experiment reuses R18's city geometry
// (RandomDisk at constant density, 130 m range, seed 42) so the two tables
// describe the same meshes — R18 plans them cold, R19 serves them live
// through the incremental admission engine. Solves carry both a node budget
// and a wall-clock limit — serving is about bounded decision latency, and an
// infeasibility proof of the ordering ILP can take arbitrarily long. A blown
// budget falls back to a single feasibility probe at the window cap
// (admission needs *a* window within the cap, not the minimum) and only
// rejects conservatively when that fails too, so borderline verdicts can
// flip run to run on the same host; the verdict/tier split, latency and
// throughput columns are all wall-clock-dependent, which is why R19 has no
// golden (see notPinned in golden_test.go).
const (
	r19Seed        = 42
	r19SolveBudget = 50_000
	r19SolveTime   = 250 * time.Millisecond
)

// r19Point is one mesh scale of the R19 sweep.
type r19Point struct {
	nodes int
	calls int
	// zoned switches the engine to per-zone incremental models — the
	// city-scale mode (24-node meshes solve monolithically).
	zoned bool
	// rate and holding set the offered Erlang load (rate * holding).
	rate    float64 // arrivals per second
	holding time.Duration
	// maxWin caps the serving window in slots; calls that cannot fit are
	// rejected. Keeping it well under the frame is what makes admission a
	// decision at all — the frame itself never fills at these loads.
	maxWin int
}

// R19AdmissionServing replays a deterministic Poisson call workload
// (exponential holding times, random shortest-path routes) through the
// incremental admission engine at three mesh scales. Columns report the
// offered load and verdict split, the repair-tier mix (fastpath / warm /
// cold), and the serving throughput and decision-latency quantiles — the
// wall-clock columns, which are the volatile ones.
func R19AdmissionServing() (*Table, error) {
	return r19Table("R19", []r19Point{
		{nodes: 24, calls: 400, zoned: false, rate: 16, holding: 500 * time.Millisecond, maxWin: 32},
		{nodes: 250, calls: 300, zoned: true, rate: 30, holding: time.Second, maxWin: 32},
		{nodes: 1000, calls: 300, zoned: true, rate: 30, holding: time.Second, maxWin: 32},
	})
}

// r19Table runs the sweep; the reduced admit-smoke configuration shares it.
func r19Table(id string, points []r19Point) (*Table, error) {
	t := &Table{
		ID: id,
		Header: []string{"nodes", "links", "erlang", "offered", "admitted", "rejected",
			"fastpath", "warm", "cold", "adm/s", "p50 latency us", "p99 latency us"},
		Notes: "village = 4-wide grid (100 m spacing, monolithic engine); city = random disk at" +
			" R18's density (range 130 m, zoned engine); frame 256 slots, 32-slot serving window;" +
			" Poisson arrivals, exponential holding, shortest-path routes, 1 slot/link (seed " +
			fmt.Sprint(r19Seed) + "); solves budgeted at " + fmt.Sprint(r19SolveBudget) + " nodes / " +
			fmt.Sprint(r19SolveTime) + " — a blown budget falls back to first-fitting the demand in greedy order under the window" +
			" cap, which admits or rejects conservatively, so borderline verdicts can flip run to run;" +
			" the verdict/tier split, 'adm/s' and the latency quantiles are host time (volatile)",
	}
	cfg := emuFrame(256)
	for _, pt := range points {
		var net *topology.Network
		var err error
		if pt.zoned {
			net, err = topology.RandomDisk(pt.nodes, r18Side(pt.nodes), r18CommRange, r19Seed)
		} else {
			net, err = topology.Grid(4, pt.nodes/4, 100)
		}
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
		if err != nil {
			return nil, err
		}
		eng, err := admit.New(admit.Config{
			Graph:     g,
			Frame:     cfg,
			MaxWindow: pt.maxWin,
			MILP:      milp.Options{MaxNodes: r19SolveBudget, TimeLimit: r19SolveTime},
			Zoned:     pt.zoned,
		})
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		w, err := admit.Generate(admit.WorkloadConfig{
			Topo: net, Calls: pt.calls, ArrivalRate: pt.rate,
			MeanHolding: pt.holding, SlotsPerLink: 1, Seed: r19Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		st, err := admit.Serve(context.Background(), eng, w)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		admPerSec := 0.0
		if st.Elapsed > 0 {
			admPerSec = float64(st.Offered) / st.Elapsed.Seconds()
		}
		p50, err := st.Latency.Quantile(0.50)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		p99, err := st.Latency.Quantile(0.99)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		t.AddRow(pt.nodes, net.NumLinks(), fmt.Sprintf("%.1f", w.Erlang),
			st.Offered, st.Admitted, st.Rejected, st.Fast, st.Warm, st.Cold,
			fmt.Sprintf("%.0f", admPerSec),
			fmt.Sprintf("%.1f", p50*1e6), fmt.Sprintf("%.1f", p99*1e6))
	}
	return t, nil
}
