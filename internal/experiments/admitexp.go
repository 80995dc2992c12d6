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
// through the incremental admission engine. The branch and bound runs only
// where the path-major witness misses the window cap, bounded by its node
// budget alone, so R19.golden pins every column but the host-time ones.
// Budgets of 100, 500 and 2 000 nodes give the same three rows, the table
// taking 0.5 s, 2.1 s and 9.7 s on 2 vCPUs; the smallest is kept.
const (
	r19Seed        = 42
	r19SolveBudget = 100
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
			"fastpath", "witness", "warm", "cold", "adm/s", "p50 latency us", "p99 latency us"},
		Notes: "village = 4-wide grid (100 m spacing, monolithic engine); city = random disk at" +
			" R18's density (range 130 m, zoned engine); frame 256 slots, 32-slot serving window;" +
			" Poisson arrivals, exponential holding, shortest-path routes, 1 slot/link (seed " +
			fmt.Sprint(r19Seed) + "); a zone runs branch and bound (" + fmt.Sprint(r19SolveBudget) +
			" nodes, then a greedy-order first-fit) only where its path-major witness" +
			" misses the window cap; 'adm/s' and the latency quantiles are host time",
		HostTime: []string{"adm/s", "p50 latency us", "p99 latency us"},
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
			MILP:      milp.Options{MaxNodes: r19SolveBudget},
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
			st.Offered, st.Admitted, st.Rejected, st.Fast, st.Witness, st.Warm, st.Cold,
			fmt.Sprintf("%.0f", admPerSec),
			fmt.Sprintf("%.1f", p50*1e6), fmt.Sprintf("%.1f", p99*1e6))
	}
	return t, nil
}
