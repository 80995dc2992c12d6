package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/phy"
	"wimesh/internal/schedule"
	"wimesh/internal/sim"
	"wimesh/internal/stats"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// R15RoutingMetric compares hop-count routing against ETX-weighted routing
// on a diamond topology whose short route crosses two half-lossy links: the
// minimum-hop path wins on hops and loses half its frames per hop; the ETX
// path takes one extra clean hop and delivers everything. Link-layer ARQ
// partially rescues the lossy route at the cost of retransmissions.
func R15RoutingMetric() (*Table, error) {
	t := &Table{
		ID:     "R15",
		Header: []string{"routing", "ARQ", "hops", "delivery%", "voice R", "retransmissions"},
		Notes:  "diamond: src->relay->gw (2 hops, 50% PER each) vs src->3 clean hops->gw; one G.711 call, 8 s runs",
	}
	for _, sc := range []struct {
		name string
		etx  bool
		arq  int
	}{
		{"hop-count", false, 0},
		{"hop-count", false, 3},
		{"ETX", true, 0},
		{"ETX", true, 3},
	} {
		hops, delivery, r, retx, err := routingRun(sc.etx, sc.arq)
		if err != nil {
			return nil, fmt.Errorf("R15 %s arq=%d: %w", sc.name, sc.arq, err)
		}
		t.AddRow(sc.name, sc.arq, hops, fmt.Sprintf("%.1f", delivery*100),
			fmt.Sprintf("%.1f", r), retx)
	}
	return t, nil
}

// routingDiamond builds the topology: gateway 0, relay 1 (lossy route),
// clean relays 2 and 3, source 4. Links 4->1 and 1->0 have 50% PER; the
// detour 4->3->2->0 is clean.
func routingDiamond() (*topology.Network, map[topology.LinkID]float64, error) {
	topo := topology.NewNetwork()
	gw := topo.AddNode(0, 0)
	relay := topo.AddNode(100, 50)
	c2 := topo.AddNode(100, -50)
	c3 := topo.AddNode(200, -50)
	src := topo.AddNode(300, 0)
	per := make(map[topology.LinkID]float64)
	addBoth := func(a, b topology.NodeID, p float64) error {
		ab, ba, err := topo.AddBidirectional(a, b, 11e6)
		if err != nil {
			return err
		}
		per[ab], per[ba] = p, p
		return nil
	}
	if err := addBoth(src, relay, 0.5); err != nil {
		return nil, nil, err
	}
	if err := addBoth(relay, gw, 0.5); err != nil {
		return nil, nil, err
	}
	if err := addBoth(src, c3, 0); err != nil {
		return nil, nil, err
	}
	if err := addBoth(c3, c2, 0); err != nil {
		return nil, nil, err
	}
	if err := addBoth(c2, gw, 0); err != nil {
		return nil, nil, err
	}
	if err := topo.SetGateway(gw); err != nil {
		return nil, nil, err
	}
	return topo, per, nil
}

func routingRun(useETX bool, arq int) (hops int, delivery float64, rFactor float64, retx uint64, err error) {
	topo, per, err := routingDiamond()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	const src, gw = 4, 0
	var path topology.Path
	if useETX {
		path, err = topo.ShortestPathWeighted(src, gw, func(l topology.LinkID) float64 {
			return phy.ETX(per[l])
		})
	} else {
		path, err = topo.ShortestPath(src, gw)
	}
	if err != nil {
		return 0, 0, 0, 0, err
	}

	frame := tdma.FrameConfig{FrameDuration: 8 * time.Millisecond, DataSlots: 8}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	demand := make(map[topology.LinkID]int, len(path))
	for _, l := range path {
		// Two slots per hop leave headroom for ARQ retransmissions.
		demand[l] = 2
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: frame.DataSlots,
		Flows: []schedule.FlowRequirement{{Path: path}}}
	sched, err := schedule.OrderToSchedule(p, schedule.PathMajorOrder(p), frame.DataSlots, frame)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	kernel := sim.NewKernel()
	codec := voip.G711()
	var delays stats.Sample
	sent := 0
	nw, err := tdmaemu.New(tdmaemu.Config{QueueCap: 512, ARQRetries: arq}, topo, kernel, sched, nil, 400,
		func(pkt *tdmaemu.Packet, at time.Duration) { delays.AddDuration(at - pkt.Created) })
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := nw.Medium().SetLossModel(func(from, to topology.NodeID) float64 {
		if l, err := topo.FindLink(from, to); err == nil {
			return per[l]
		}
		return 0
	}, 41); err != nil {
		return 0, 0, 0, 0, err
	}
	if err := nw.Start(); err != nil {
		return 0, 0, 0, 0, err
	}
	src1, err := voip.NewSource(codec, voip.ModeCBR, func(vp voip.Packet) {
		sent++
		_ = nw.Inject(&tdmaemu.Packet{Seq: vp.Seq, Path: path, Bytes: vp.Bytes})
	}, nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := src1.Start(kernel, 0); err != nil {
		return 0, 0, 0, 0, err
	}
	const duration = 8 * time.Second
	kernel.RunUntil(duration)
	src1.Stop()

	delivery = float64(delays.Len()) / float64(sent)
	loss := 1 - delivery
	if loss < 0 {
		loss = 0
	}
	rFactor = 0
	if delays.Len() > 0 {
		q, _, err := voip.EvaluateWithPlayout(codec, delays.Durations(), loss, 0.01)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		rFactor = q.R
	}
	return path.Hops(), delivery, rFactor, nw.Stats().ARQRetransmissions, nil
}
