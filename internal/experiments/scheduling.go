package experiments

import (
	"errors"
	"fmt"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// emuFrame returns the control-free frame used by the scheduling
// experiments: slots slots of 1.25 ms.
func emuFrame(slots int) tdma.FrameConfig {
	return tdma.FrameConfig{
		FrameDuration: time.Duration(slots) * 1250 * time.Microsecond,
		DataSlots:     slots,
	}
}

// uplinkProblem builds the scheduling problem of k G.711 calls to the
// gateway of topo under frame cfg: demands from the codec packet size at 2
// packets per slot, one flow requirement per call.
func uplinkProblem(topo *topology.Network, k int, cfg tdma.FrameConfig) (*schedule.Problem, error) {
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		return nil, err
	}
	return uplinkProblemOnGraph(topo, g, k, cfg)
}

// uplinkProblemOnGraph is uplinkProblem with the conflict graph supplied by
// the caller, so experiments sweeping the call count on a fixed topology
// build the graph once instead of once per sweep point.
func uplinkProblemOnGraph(topo *topology.Network, g *conflict.Graph, k int, cfg tdma.FrameConfig) (*schedule.Problem, error) {
	gw, ok := topo.Gateway()
	if !ok {
		return nil, errors.New("no gateway")
	}
	var callers []topology.NodeID
	for _, nd := range topo.Nodes() {
		if nd.ID != gw {
			callers = append(callers, nd.ID)
		}
	}
	fs := topology.NewFlowSet(topo)
	codec := voip.G711()
	for i := 0; i < k; i++ {
		if _, err := fs.Add(callers[i%len(callers)], gw, codec.BandwidthBps(), 0); err != nil {
			return nil, err
		}
	}
	// Two 200-byte voice packets per 1.25 ms slot at 11 Mb/s.
	demand, err := schedule.SlotDemand(fs, cfg, func(topology.LinkID) int { return 2 * codec.PacketBytes() })
	if err != nil {
		return nil, err
	}
	reqs, err := schedule.Requirements(fs, cfg)
	if err != nil {
		return nil, err
	}
	return &schedule.Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots, Flows: reqs}, nil
}

// R1MinFrameLength reproduces the minimum-frame-length experiment: the
// smallest TDMA window supporting k VoIP calls, found by the linear search
// with an ILP feasibility test per window, against the greedy baseline's
// schedule length and the clique lower bound. Chain and tree topologies.
func R1MinFrameLength() (*Table, error) {
	t := &Table{
		ID:     "R1",
		Header: []string{"calls", "chain6 ILP", "chain6 greedy", "chain6 LB", "tree7 ILP", "tree7 greedy"},
		Notes:  "chain6: 6-node chain; tree7: binary tree of depth 2; frame: 16 slots of 1.25 ms; '-' = infeasible",
	}
	cfg := emuFrame(16)
	chain, err := topology.Chain(6, 100)
	if err != nil {
		return nil, err
	}
	tree, err := topology.Tree(2, 2)
	if err != nil {
		return nil, err
	}
	graphs := make(map[*topology.Network]*conflict.Graph, 2)
	for _, topo := range []*topology.Network{chain, tree} {
		g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
		if err != nil {
			return nil, err
		}
		graphs[topo] = g
	}
	for k := 1; k <= 6; k++ {
		row := []any{k}
		for _, topo := range []*topology.Network{chain, tree} {
			p, err := uplinkProblemOnGraph(topo, graphs[topo], k, cfg)
			if err != nil {
				return nil, err
			}
			ilpCell, greedyCell := "-", "-"
			win, _, _, err := schedule.MinSlots(p, cfg, milp.Options{MaxNodes: 200_000})
			switch {
			case err == nil:
				ilpCell = fmt.Sprintf("%d", win)
			case errors.Is(err, schedule.ErrInfeasible):
			default:
				return nil, err
			}
			gs, err := schedule.Greedy(p, cfg)
			switch {
			case err == nil:
				greedyCell = fmt.Sprintf("%d", schedule.GreedyLength(gs))
			case errors.Is(err, schedule.ErrInfeasible):
			default:
				return nil, err
			}
			if topo == chain {
				row = append(row, ilpCell, greedyCell, p.CliqueLowerBound())
			} else {
				row = append(row, ilpCell, greedyCell)
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// R2DelayAwareOrdering reproduces the delay-aware scheduling experiment:
// maximum end-to-end scheduling delay of one flow across an n-hop chain
// under the exact min-max order, the tree order, the path-major greedy
// order, the naive (link-ID) order, and a random order.
func R2DelayAwareOrdering() (*Table, error) {
	t := &Table{
		ID:     "R2",
		Header: []string{"hops", "minmax ILP", "tree", "path-major", "naive", "random"},
		Notes:  "single flow over an n-hop chain, unit slot demands, 16-slot frame of 20 ms; delays exclude the initial frame wait",
	}
	cfg := emuFrame(16)
	for hops := 2; hops <= 8; hops++ {
		topo, err := topology.Chain(hops+1, 100)
		if err != nil {
			return nil, err
		}
		p, err := uplinkProblem(topo, 1, cfg)
		if err != nil {
			return nil, err
		}
		// Reroute the single call from the farthest node for a full-chain
		// path.
		g := p.Graph
		path, err := topo.ShortestPath(topology.NodeID(hops), 0)
		if err != nil {
			return nil, err
		}
		demand := make(map[topology.LinkID]int)
		for _, l := range path {
			demand[l] = 1
		}
		p = &schedule.Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots,
			Flows: []schedule.FlowRequirement{{Path: path}}}

		row := []any{hops}
		// Exact min-max.
		res, err := schedule.MinMaxDelayOrder(p, cfg.DataSlots, cfg, milp.Options{MaxNodes: 300_000})
		if err != nil {
			return nil, err
		}
		row = append(row, ms(res.MaxDelay))
		// Tree order.
		rt, err := topo.BuildRoutingTree()
		if err != nil {
			return nil, err
		}
		order, err := schedule.TreeOrder(p, rt, topo)
		if err != nil {
			return nil, err
		}
		d, err := orderDelay(p, order, cfg)
		if err != nil {
			return nil, err
		}
		row = append(row, ms(d))
		// Path-major.
		d, err = orderDelay(p, schedule.PathMajorOrder(p), cfg)
		if err != nil {
			return nil, err
		}
		row = append(row, ms(d))
		// Naive.
		d, err = orderDelay(p, schedule.NaiveOrder(p), cfg)
		if err != nil {
			return nil, err
		}
		row = append(row, ms(d))
		// Random (mean of 5 seeds).
		var sum time.Duration
		for seed := int64(0); seed < 5; seed++ {
			d, err := orderDelay(p, schedule.RandomOrder(p, sim.NewRNG(seed, 7)), cfg)
			if err != nil {
				return nil, err
			}
			sum += d
		}
		row = append(row, ms(sum/5))
		t.AddRow(row...)
	}
	return t, nil
}

func orderDelay(p *schedule.Problem, o schedule.Order, cfg tdma.FrameConfig) (time.Duration, error) {
	s, err := schedule.OrderToSchedule(p, o, cfg.DataSlots, cfg)
	if err != nil {
		return 0, err
	}
	return schedule.MaxPathDelay(p, s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// R7SchedulerScalability reproduces the scheduler-runtime comparison: wall
// time of the exact ILP linear search, the order pipeline (path-major order,
// then the longest-path pass that stands for Bellman-Ford) and the greedy
// coloring as the chain grows.
func R7SchedulerScalability() (*Table, error) {
	t := &Table{
		ID:     "R7",
		Header: []string{"nodes", "hops", "ILP search", "order+BF", "greedy"},
		Notes:  "full-chain flow, unit demands, 64-slot frame; ILP capped at 200k B&B nodes ('-' = cap exceeded)",
		// Every measured column is a scheduler wall time.
		HostTime: []string{"ILP search", "order+BF", "greedy"},
	}
	cfg := emuFrame(64)
	for _, n := range []int{4, 6, 8, 12, 16, 24} {
		topo, err := topology.Chain(n, 100)
		if err != nil {
			return nil, err
		}
		g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
		if err != nil {
			return nil, err
		}
		path, err := topo.ShortestPath(topology.NodeID(n-1), 0)
		if err != nil {
			return nil, err
		}
		demand := make(map[topology.LinkID]int)
		for _, l := range path {
			demand[l] = 1
		}
		p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots,
			Flows: []schedule.FlowRequirement{{Path: path}}}

		ilpCell := "-"
		start := time.Now()
		if _, _, _, err := schedule.MinSlots(p, cfg, milp.Options{MaxNodes: 200_000}); err == nil {
			ilpCell = time.Since(start).Round(10 * time.Microsecond).String()
		} else if !errors.Is(err, schedule.ErrInfeasible) && !errors.Is(err, milp.ErrLimit) {
			return nil, err
		}

		start = time.Now()
		if _, _, err := schedule.MinWindowForOrder(p, schedule.PathMajorOrder(p), cfg); err != nil {
			return nil, err
		}
		bfCell := time.Since(start).Round(10 * time.Microsecond).String()

		start = time.Now()
		if _, err := schedule.Greedy(p, cfg); err != nil {
			return nil, err
		}
		greedyCell := time.Since(start).Round(10 * time.Microsecond).String()

		t.AddRow(n, len(path), ilpCell, bfCell, greedyCell)
	}
	return t, nil
}
