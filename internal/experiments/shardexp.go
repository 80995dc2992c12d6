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

// R20 parameters: the sharded-serving experiment replays one deterministic
// workload per mesh scale through the serial zoned engine and through the
// sharded engine at 8 workers, and reports the throughput ratio. The meshes
// reuse R18's city geometry (RandomDisk at constant density, 130 m range,
// seed 42) like R19 does, and every call routes to the gateway — the WiMAX
// mesh traffic pattern of the paper, where all flows transit the base
// station. Gateway-directed traffic is exactly the regime the sharded
// engine exists for: each call crosses the saturated gateway zone, so the
// single-call fast path misses there and the serial engine pays one zone
// solve per arrival, while a joint batch pays one solve for up to 16. Zones
// are sized at twice the comm range so the gateway's whole contention
// neighbourhood lands in one zone and batched solves see it whole. Solves
// carry a node budget only (no wall-clock limit): on a loaded host a time
// limit would fire at different points serially and concurrently and skew
// the comparison; a blown budget ends in the engine's greedy witness
// verdict, the bounded-latency serving posture, not an error.
const (
	r20Seed        = 42
	r20SolveBudget = 2000
	r20Batch       = 16
	r20ZoneSize    = 2 * r18CommRange
)

// r20Point is one mesh scale of the R20 sweep; every point runs once per
// worker count.
type r20Point struct {
	nodes   int
	calls   int
	rate    float64 // arrivals per second
	holding time.Duration
}

// R20ShardedServing replays the gateway-directed workload through the zoned
// admission engine serially (workers 1, plain admit.Serve) and sharded
// (8 workers, joint batches of up to 16) at two city scales. 'adm/s' is
// offered calls over end-to-end wall time — the fair denominator, since
// concurrent workers overlap their in-call time — and 'speedup' is that
// figure over the same mesh's serial row. Both are host time and volatile;
// the verdict columns drift between modes because the concurrent replay
// lets workers retire departures while others still decide arrivals, so
// batched decisions see marginally different schedule states than serial
// ones (verdict-set equality under a controlled interleaving is pinned by
// the differential test, not here).
func R20ShardedServing() (*Table, error) {
	return r20Table("R20", []r20Point{
		{nodes: 250, calls: 300, rate: 30, holding: 20 * time.Second},
		{nodes: 1000, calls: 300, rate: 30, holding: 20 * time.Second},
	}, []int{1, 8})
}

// r20Table runs the sweep; the reduced shard-smoke configuration shares it.
func r20Table(id string, points []r20Point, workerSet []int) (*Table, error) {
	t := &Table{
		ID: id,
		Header: []string{"nodes", "links", "workers", "offered", "admitted", "rejected",
			"batched", "wall ms", "adm/s", "speedup"},
		Notes: "random disk at R18's density (range 130 m, zoned engine, " + fmt.Sprint(r20ZoneSize) +
			" m zones, seed " + fmt.Sprint(r20Seed) + "); frame 256 slots, window uncapped; Poisson" +
			" arrivals all routed to the gateway (WiMAX-mesh pattern), 1 slot/link, holding long" +
			" against the arrival span; workers 1 = serial admit.Serve, workers 8 = per-zone locking" +
			" with joint batches of up to " + fmt.Sprint(r20Batch) + "; solves budgeted at " +
			fmt.Sprint(r20SolveBudget) + " nodes, no wall-clock limit; 'wall ms', 'adm/s' and 'speedup'" +
			" are host time (volatile), and the verdict and 'batched' columns drift between modes",
	}
	cfg := emuFrame(256)
	for _, pt := range points {
		net, err := topology.RandomDisk(pt.nodes, r18Side(pt.nodes), r18CommRange, r20Seed)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
		if err != nil {
			return nil, err
		}
		w, err := admit.Generate(admit.WorkloadConfig{
			Topo: net, Calls: pt.calls, ArrivalRate: pt.rate,
			MeanHolding: pt.holding, SlotsPerLink: 1, Seed: r20Seed,
			ToGateway: true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		serialAdmPerSec := 0.0
		for _, workers := range workerSet {
			eng, err := admit.New(admit.Config{
				Graph:    g,
				Frame:    cfg,
				MILP:     milp.Options{MaxNodes: r20SolveBudget},
				Zoned:    true,
				ZoneSize: r20ZoneSize,
			})
			if err != nil {
				return nil, fmt.Errorf("%s n=%d w=%d: %w", id, pt.nodes, workers, err)
			}
			var st admit.ServeStats
			if workers > 1 {
				st, err = admit.ServeConcurrent(context.Background(), eng, w, admit.ServeOptions{
					Workers: workers, BatchMax: r20Batch,
				})
			} else {
				st, err = admit.Serve(context.Background(), eng, w)
			}
			if err != nil {
				return nil, fmt.Errorf("%s n=%d w=%d: %w", id, pt.nodes, workers, err)
			}
			admPerSec := 0.0
			if st.Wall > 0 {
				admPerSec = float64(st.Offered) / st.Wall.Seconds()
			}
			speedup := 1.0
			if workers == 1 {
				serialAdmPerSec = admPerSec
			} else if serialAdmPerSec > 0 {
				speedup = admPerSec / serialAdmPerSec
			}
			t.AddRow(pt.nodes, net.NumLinks(), workers,
				st.Offered, st.Admitted, st.Rejected, eng.Stats().Batched,
				fmt.Sprintf("%.0f", float64(st.Wall.Milliseconds())),
				fmt.Sprintf("%.0f", admPerSec),
				fmt.Sprintf("%.2f", speedup))
		}
	}
	return t, nil
}
