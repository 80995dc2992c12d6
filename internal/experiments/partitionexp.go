package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/topology"
)

// R18 parameters: a city-scale RandomDisk mesh at constant density (the
// side grows with sqrt(n), holding mean degree at ~9 so the meshes stay
// connected without leaning on the densify fallback), random node-pair flows
// admitted by interference load, and a fixed per-zone branch-and-bound
// budget. The budget is deliberately small: near saturation a zone either
// solves in a few hundred nodes or will not solve at all, and a failed
// search should cost milliseconds before the greedy fallback takes over.
// The budget is a node count, not a time limit, so every cell except the
// wall clock is deterministic.
const (
	r18CommRange  = 130.0
	r18Seed       = 42
	r18ZoneBudget = 400
)

// r18Side scales the deployment area so node density (and hence conflict
// degree) is the same at every size.
func r18Side(n int) float64 {
	return math.Round(2400 * math.Sqrt(float64(n)/1000))
}

// r18Point is one topology scale of the R18 sweep.
type r18Point struct {
	nodes     int
	flows     int
	zoneSizes []float64 // zone edge in meters; 0 = auto
}

// R18PartitionedScale exercises the city-scale partitioned scheduler:
// 250-1000-node random-disk meshes carrying thousands of node-pair flows,
// solved zone by zone and stitched, sweeping the zone size. Columns report
// the decomposition (zones, halo links), the schedule quality (window
// slots, stitch repairs, greedy fallbacks) and the solve wall clock — the
// only nondeterministic column.
func R18PartitionedScale() (*Table, error) {
	return r18Table("R18", []r18Point{
		{nodes: 250, flows: 1250, zoneSizes: []float64{0}},
		{nodes: 500, flows: 2500, zoneSizes: []float64{0, 2 * r18CommRange, 4 * r18CommRange}},
		{nodes: 1000, flows: 5000, zoneSizes: []float64{0, 2 * r18CommRange, 4 * r18CommRange}},
	})
}

// r18Table runs the sweep; the reduced scale-smoke configuration shares it.
func r18Table(id string, points []r18Point) (*Table, error) {
	t := &Table{
		ID: id,
		Header: []string{"nodes", "links", "offered", "admitted", "zone m", "zones",
			"halo", "window", "repairs", "greedy", "wall ms"},
		Notes: "random disk at constant density (range 130 m); random node-pair flows admitted by interference load" +
			" (frame 256 slots); zone 'auto' = 3x longest link; per-zone B&B budget " +
			fmt.Sprint(r18ZoneBudget) + " nodes; 'wall ms' is host time (volatile)",
		HostTime: []string{"wall ms"},
	}
	cfg := emuFrame(256)
	for _, pt := range points {
		net, err := topology.RandomDisk(pt.nodes, r18Side(pt.nodes), r18CommRange, r18Seed)
		if err != nil {
			return nil, fmt.Errorf("R18 n=%d: %w", pt.nodes, err)
		}
		g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
		if err != nil {
			return nil, err
		}
		demand, admitted, err := r18Admit(net, g, pt.flows, cfg.DataSlots, r18Seed+1)
		if err != nil {
			return nil, err
		}
		p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		for _, zs := range pt.zoneSizes {
			start := time.Now()
			res, err := partition.MinSlots(p, cfg, partition.Options{
				ZoneSize: zs,
				MILP:     milp.Options{MaxNodes: r18ZoneBudget},
			})
			if err != nil {
				return nil, fmt.Errorf("R18 n=%d zone=%g: %w", pt.nodes, zs, err)
			}
			wall := time.Since(start)
			if err := res.Schedule.Validate(g); err != nil {
				return nil, fmt.Errorf("R18 n=%d zone=%g: stitched schedule invalid: %w", pt.nodes, zs, err)
			}
			zcell := "auto"
			if zs > 0 {
				zcell = fmt.Sprintf("%.0f", zs)
			}
			t.AddRow(pt.nodes, net.NumLinks(), pt.flows, admitted, zcell,
				res.Zones, res.HaloLinks, res.WindowSlots, res.Repairs,
				res.GreedyFallbacks, fmt.Sprintf("%.1f", float64(wall.Microseconds())/1000))
		}
	}
	return t, nil
}

// r18Admit offers `offered` unit-demand flows between seed-derived random
// node pairs (random pairs rather than all-to-gateway, so spatial reuse —
// the point of partitioned scheduling — carries thousands of flows instead
// of saturating one gateway clique) and admits each only if, for every link
// it loads, the interference load — the link's demand plus the demand of
// every conflicting link — stays within the frame. That bound is sufficient
// for the stitched first-fit placement to always find a slot (a link's
// conflicting blocks can cover at most load-demand slots), so admission
// guarantees schedulability without solving anything.
func r18Admit(net *topology.Network, g *conflict.Graph, offered, frameSlots int, seed int64) (map[topology.LinkID]int, int, error) {
	ids := make([]topology.NodeID, 0, net.NumNodes())
	for _, nd := range net.Nodes() {
		ids = append(ids, nd.ID)
	}
	rng := rand.New(rand.NewSource(seed))
	demand := make(map[topology.LinkID]int)
	load := make([]int, g.NumVertices()) // demand(l) + sum of conflicting demands
	type pair struct{ src, dst topology.NodeID }
	paths := make(map[pair]topology.Path)
	admitted := 0
	delta := make(map[topology.LinkID]int)
	for i := 0; i < offered; i++ {
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		path, ok := paths[pair{src, dst}]
		if !ok {
			var err error
			path, err = net.ShortestPath(src, dst)
			if err != nil {
				return nil, 0, err
			}
			paths[pair{src, dst}] = path
		}
		// The flow adds one slot on every path link; each increment raises
		// the load of the link itself and of every conflicting link.
		clear(delta)
		for _, l := range path {
			delta[l]++
			g.VisitNeighbors(l, func(nb topology.LinkID) bool {
				delta[nb]++
				return true
			})
		}
		fits := true
		for l, d := range delta {
			if load[l]+d > frameSlots {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for l, d := range delta {
			load[l] += d
		}
		for _, l := range path {
			demand[l]++
		}
		admitted++
	}
	return demand, admitted, nil
}
