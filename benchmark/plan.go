package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// planParams sizes the offline planning workload: Episodes independent
// demand sets, each planned once per zone size.
type planParams struct {
	Mesh       string    `json:"mesh"`
	FrameSlots int       `json:"frame_slots"`
	Flows      int       `json:"offered_flows"`
	ZoneSizes  []float64 `json:"zone_sizes_m"` // 0 = automatic
	Budget     int       `json:"zone_node_budget"`
	Episodes   int       `json:"episodes"`
}

// routeTree is a breadth-first tree of the mesh from one source, kept as the
// link that reaches each node. Offered flows are drawn by the thousand, and
// one tree per source serves all of that source's flows.
type routeTree []topology.LinkID

func newRouteTree(net *topology.Network, src topology.NodeID) routeTree {
	via := make(routeTree, net.NumNodes())
	for i := range via {
		via[i] = -1
	}
	seen := make([]bool, net.NumNodes())
	seen[src] = true
	for queue := []topology.NodeID{src}; len(queue) > 0; queue = queue[1:] {
		for _, l := range net.OutLinks(queue[0]) {
			lk, err := net.Link(l)
			if err != nil || seen[lk.To] {
				continue
			}
			seen[lk.To] = true
			via[lk.To] = l
			queue = append(queue, lk.To)
		}
	}
	return via
}

// pathTo returns the tree's path from its source to dst, nil if unreachable.
func (t routeTree) pathTo(net *topology.Network, dst topology.NodeID) topology.Path {
	var rev topology.Path
	for at := dst; t[at] >= 0; {
		lk, err := net.Link(t[at])
		if err != nil {
			return nil
		}
		rev = append(rev, t[at])
		at = lk.From
	}
	slices.Reverse(rev)
	return rev
}

// offeredDemand draws node-pair flows and keeps each one whose shortest path
// fits by interference load (a link's own demand plus that of every link it
// conflicts with stays within the frame) — R18's admission rule, restated
// here so the planner is handed a plain demand map.
func offeredDemand(net *topology.Network, g *conflict.Graph, trees []routeTree, p planParams, seed int64, episode int) map[topology.LinkID]int {
	rng := rand.New(rand.NewSource(subSeed(seed, episode)))
	n := net.NumNodes()
	demand := make(map[topology.LinkID]int)
	load := make([]int, g.NumVertices())
	delta := make([]int, g.NumVertices())
	var touched []topology.LinkID
	bump := func(l topology.LinkID) bool {
		if delta[l] == 0 {
			touched = append(touched, l)
		}
		delta[l]++
		return true
	}
	for i := 0; i < p.Flows; i++ {
		src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		if trees[src] == nil {
			trees[src] = newRouteTree(net, src)
		}
		path := trees[src].pathTo(net, dst)
		for _, l := range path {
			bump(l)
			g.VisitNeighbors(l, bump)
		}
		fits := true
		for _, l := range touched {
			if load[l]+delta[l] > p.FrameSlots {
				fits = false
				break
			}
		}
		for _, l := range touched {
			if fits {
				load[l] += delta[l]
			}
			delta[l] = 0
		}
		touched = touched[:0]
		if fits {
			for _, l := range path {
				demand[l]++
			}
		}
	}
	return demand
}

type planSetup struct {
	topo     *topology.Network
	graph    *conflict.Graph
	frame    tdma.FrameConfig
	problems []*schedule.Problem

	topoDur, conflictDur, generateDur time.Duration
}

func setupPlan(p planParams, seed int64, episodes int, tr *tracer) (*planSetup, error) {
	s := &planSetup{frame: tdma.FrameConfig{
		FrameDuration: time.Duration(p.FrameSlots) * 1250 * time.Microsecond, DataSlots: p.FrameSlots}}
	root := tr.begin("setup", "setup", 0)
	defer tr.end(root)
	var err error

	s.topoDur, err = tr.timed("topology.build", "setup", root, func() (err error) {
		s.topo, err = buildMesh(p.Mesh)
		return
	})
	if err != nil {
		return nil, err
	}
	s.conflictDur, err = tr.timed("conflict.Build", "setup", root, func() (err error) {
		s.graph, err = conflict.Build(s.topo, conflict.Options{Model: conflict.ModelTwoHop})
		return
	})
	if err != nil {
		return nil, err
	}
	s.generateDur, err = tr.timed("workload.generate", "setup", root, func() error {
		trees := make([]routeTree, s.topo.NumNodes()) // filled as sources come up
		for ep := 0; ep < episodes; ep++ {
			prob := &schedule.Problem{Graph: s.graph, Demand: offeredDemand(s.topo, s.graph, trees, p, seed, ep), FrameSlots: p.FrameSlots}
			if err := prob.Validate(); err != nil {
				return err
			}
			s.problems = append(s.problems, prob)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// zonePlan is one partition.MinSlots call.
type zonePlan struct {
	took time.Duration
	res  *partition.Result
}

// demandPlans is one demand set planned at every zone size.
type demandPlans struct {
	lower int // the set's clique lower bound on any window
	zones []zonePlan
	gate  []string
}

func (d demandPlans) wall() (t time.Duration) {
	for _, z := range d.zones {
		t += z.took
	}
	return t
}

func (d demandPlans) signature() (h uint64) {
	for _, z := range d.zones {
		h = fold(h, z.res.WindowSlots, z.res.Zones, z.res.ILPsSolved, z.res.Repairs, z.res.GreedyFallbacks)
	}
	return h
}

// planDemand plans one demand set at every zone size, validating each
// stitched schedule: conflict-free and every link's demand met exactly.
func planDemand(s *planSetup, p planParams, ep int, tr *tracer) (demandPlans, error) {
	prob := s.problems[ep]
	d := demandPlans{lower: prob.CliqueLowerBound()}
	for _, zs := range p.ZoneSizes {
		req := fmt.Sprintf("e%d-zone%g", ep, zs)
		root := tr.begin("plan", req, 0)
		var res *partition.Result
		took, err := tr.timed("partition.MinSlots", req, root, func() (err error) {
			res, err = partition.MinSlots(prob, s.frame, partition.Options{
				ZoneSize: zs,
				Workers:  1,
				MILP:     milp.Options{MaxNodes: p.Budget, Workers: 1},
			})
			return
		})
		if err != nil {
			tr.end(root)
			return d, fmt.Errorf("partition.MinSlots %s: %w", req, err)
		}
		id := tr.begin("tdma.Validate", req, root)
		if err := res.Schedule.Validate(s.graph); err != nil {
			d.gate = append(d.gate, fmt.Sprintf("%s: stitched schedule invalid: %v", req, err))
		}
		for l, want := range prob.Demand {
			if got := res.Schedule.LinkSlots(l); got != want {
				d.gate = append(d.gate, fmt.Sprintf("%s: link %d got %d slots, demand %d", req, l, got, want))
				break
			}
		}
		tr.end(id)
		tr.end(root)
		d.zones = append(d.zones, zonePlan{took: took, res: res})
	}
	return d, nil
}

func runPlan(p planParams, rs runSpec) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var s *planSetup
	var err error
	out.setups, err = repeatSetup(rs, func(tr *tracer) (time.Duration, error) {
		if s, err = setupPlan(p, rs.seed, rs.planned(p.Episodes), tr); err != nil {
			return 0, err
		}
		return s.topoDur + s.conflictDur + s.generateDur, nil
	})
	if err != nil {
		return nil, err
	}
	measured, reg, err := twoPasses(rs, out, len(s.problems),
		func(n int, guard time.Duration, _ *obs.Registry, tr *tracer) (done []demandPlans, truncated bool, err error) {
			var spent time.Duration
			for ep := 0; ep < n; ep++ {
				if ep > 0 && spent >= guard {
					return done, true, nil
				}
				d, err := planDemand(s, p, ep, tr)
				if err != nil {
					return nil, false, err
				}
				spent += d.wall()
				done = append(done, d)
			}
			return done, false, nil
		})
	if err != nil {
		return nil, err
	}

	var lower, window int
	for _, d := range measured {
		out.gate = append(out.gate, d.gate...)
		for _, z := range d.zones {
			out.ops = append(out.ops, z.took)
			window += z.res.WindowSlots
			// No schedule can beat the heaviest clique, so bound/window is
			// the share of the planned window that is provably needed.
			lower += d.lower
		}
	}
	out.responses = out.ops
	out.attempted = len(out.ops)
	out.offered = float64(window)
	out.served = float64(lower)
	if rs.trace {
		planLayers(out.layers, s, p, measured, reg, rs.tr)
	}
	return out, nil
}

func planLayers(m map[string]float64, s *planSetup, p planParams, plans []demandPlans, reg *obs.Registry, tr *tracer) {
	m["topology.build_ms"] = ms(s.topoDur)
	m["topology.links"] = float64(s.topo.NumLinks())
	m["conflict.build_ms"] = ms(s.conflictDur)
	m["conflict.edges"] = float64(s.graph.NumEdges())
	m["workload.generate_ms"] = ms(s.generateDur)

	d, err := tr.timed("partition.Decompose", "probe", 0, func() error {
		_, err := partition.Decompose(s.problems[0], 0)
		return err
	})
	if err == nil {
		m["partition.decompose_ms"] = ms(d)
	}

	// Per zone size: median wall across the demand sets.
	byZone := map[float64][]time.Duration{}
	var zones, halo, ilps, repairs, fallbacks, window int
	for _, d := range plans {
		for i, z := range d.zones {
			byZone[p.ZoneSizes[i]] = append(byZone[p.ZoneSizes[i]], z.took)
			zones += z.res.Zones
			halo += z.res.HaloLinks
			ilps += z.res.ILPsSolved
			repairs += z.res.Repairs
			fallbacks += z.res.GreedyFallbacks
			window += z.res.WindowSlots
		}
	}
	m["partition.minslots_auto_ms"] = ms(quantile(byZone[0], 0.5))
	m["partition.minslots_260_ms"] = ms(quantile(byZone[260], 0.5))
	m["partition.minslots_520_ms"] = ms(quantile(byZone[520], 0.5))
	m["partition.zones"] = float64(zones)
	m["partition.halo_links"] = float64(halo)
	m["partition.zone_ilps"] = float64(ilps)
	m["partition.stitch_repairs"] = float64(repairs)
	m["partition.greedy_fallback_share"] = ratio(float64(fallbacks), float64(zones))
	m["partition.window_slots"] = float64(window)
	solverLayers(m, reg)
}
