package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/mac/dcf"
	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// R8DCFSaturation reproduces the DCF baseline validation: aggregate
// saturation throughput of n contending senders around one receiver. The
// Bianchi-style shape — throughput peaks at small n and decays slowly as
// collisions grow — confirms the DCF model before it is used as the
// comparison baseline.
func R8DCFSaturation() (*Table, error) {
	t := &Table{
		ID:     "R8",
		Header: []string{"senders", "throughput Mb/s", "collision rate"},
		Notes:  "star topology, saturated 1500-byte queues, 802.11b 11 Mb/s, 2 s runs",
	}
	counts := []int{1, 2, 5, 10, 15, 20, 30}
	// One independent saturated star simulation per sender count.
	type point struct{ tput, collRate float64 }
	points := make([]point, len(counts))
	if err := forEach(len(counts), func(i int) error {
		var err error
		points[i].tput, points[i].collRate, err = saturationRun(counts[i], 2*time.Second, 17)
		return err
	}); err != nil {
		return nil, err
	}
	for i, n := range counts {
		t.AddRow(n, fmt.Sprintf("%.2f", points[i].tput/1e6), fmt.Sprintf("%.3f", points[i].collRate))
	}
	return t, nil
}

// saturationRun builds a star of n senders within mutual carrier-sense
// range of the receiver and each other, saturates their queues, and returns
// (aggregate throughput b/s, collision rate).
func saturationRun(n int, duration time.Duration, seed int64) (float64, float64, error) {
	topo := topology.NewNetwork()
	rx := topo.AddNode(0, 0)
	senders := make([]topology.NodeID, n)
	for i := 0; i < n; i++ {
		// Cluster the senders tightly so everyone senses everyone.
		senders[i] = topo.AddNode(10+float64(i), 10)
	}
	kernel := sim.NewKernel()
	var bits float64
	nw, err := dcf.New(dcf.Config{Seed: seed, QueueCap: 1 << 20}, topo, kernel, 500,
		func(p *dcf.Packet, _ time.Duration) { bits += float64(8 * p.Bytes) })
	if err != nil {
		return 0, 0, err
	}
	// Saturate: enough packets that queues never drain.
	perSender := int(duration.Seconds()*1500) / n
	if perSender < 100 {
		perSender = 100
	}
	for i, s := range senders {
		for j := 0; j < perSender; j++ {
			if err := nw.Inject(&dcf.Packet{FlowID: i, Seq: j,
				Route: []topology.NodeID{s, rx}, Bytes: 1500}); err != nil {
				return 0, 0, err
			}
		}
	}
	kernel.RunUntil(duration)
	st := nw.Stats()
	collRate := 0.0
	if st.Transmissions > 0 {
		collRate = float64(st.Collisions) / float64(st.Transmissions)
	}
	return bits / duration.Seconds(), collRate, nil
}

// R10HiddenTerminal reproduces the hidden-terminal motivation: two senders
// out of carrier-sense range of each other stream to a shared relay. Plain
// DCF collides persistently; RTS/CTS trades overhead for receiver-side
// reservation; a 2-slot TDMA schedule eliminates the problem outright.
func R10HiddenTerminal() (*Table, error) {
	t := &Table{
		ID:     "R10",
		Header: []string{"mac", "delivered", "sent", "delivery%", "collision rate"},
		Notes:  "senders at 0 m and 200 m, receiver at 100 m, 150 m carrier-sense range; 60 x 1000-byte packets per sender",
	}
	type result struct {
		name      string
		delivered uint64
		injected  uint64
		collRate  float64
	}
	var results []result

	buildTopo := func() (*topology.Network, topology.NodeID, topology.NodeID, topology.NodeID, error) {
		topo := topology.NewNetwork()
		a := topo.AddNode(0, 0)
		mid := topo.AddNode(100, 0)
		b := topo.AddNode(200, 0)
		if _, _, err := topo.AddBidirectional(a, mid, 11e6); err != nil {
			return nil, 0, 0, 0, err
		}
		if _, _, err := topo.AddBidirectional(b, mid, 11e6); err != nil {
			return nil, 0, 0, 0, err
		}
		if err := topo.SetGateway(mid); err != nil {
			return nil, 0, 0, 0, err
		}
		return topo, a, mid, b, nil
	}

	const pkts = 60
	for _, rtscts := range []bool{false, true} {
		topo, a, mid, b, err := buildTopo()
		if err != nil {
			return nil, err
		}
		kernel := sim.NewKernel()
		nw, err := dcf.New(dcf.Config{Seed: 23, RTSCTS: rtscts, QueueCap: 256}, topo, kernel, 150, nil)
		if err != nil {
			return nil, err
		}
		for j := 0; j < pkts; j++ {
			if err := nw.Inject(&dcf.Packet{Seq: j, Route: []topology.NodeID{a, mid}, Bytes: 1000}); err != nil {
				return nil, err
			}
			if err := nw.Inject(&dcf.Packet{FlowID: 1, Seq: j, Route: []topology.NodeID{b, mid}, Bytes: 1000}); err != nil {
				return nil, err
			}
		}
		kernel.Run()
		st := nw.Stats()
		name := "dcf"
		if rtscts {
			name = "dcf+rtscts"
		}
		collRate := 0.0
		if st.Transmissions > 0 {
			collRate = float64(st.Collisions) / float64(st.Transmissions)
		}
		results = append(results, result{name, st.Delivered, st.Injected, collRate})
	}

	// TDMA: links a->mid and b->mid in separate slots.
	{
		topo, a, mid, b, err := buildTopo()
		if err != nil {
			return nil, err
		}
		frame := tdma.FrameConfig{FrameDuration: 4 * time.Millisecond, DataSlots: 2}
		sched, err := tdma.NewSchedule(frame)
		if err != nil {
			return nil, err
		}
		lam, err := topo.FindLink(a, mid)
		if err != nil {
			return nil, err
		}
		lbm, err := topo.FindLink(b, mid)
		if err != nil {
			return nil, err
		}
		if err := sched.Add(tdma.Assignment{Link: lam, Start: 0, Length: 1}); err != nil {
			return nil, err
		}
		if err := sched.Add(tdma.Assignment{Link: lbm, Start: 1, Length: 1}); err != nil {
			return nil, err
		}
		kernel := sim.NewKernel()
		nw, err := tdmaemu.New(tdmaemu.Config{QueueCap: 256}, topo, kernel, sched, nil, 150, nil)
		if err != nil {
			return nil, err
		}
		if err := nw.Start(); err != nil {
			return nil, err
		}
		for j := 0; j < pkts; j++ {
			if err := nw.Inject(&tdmaemu.Packet{Seq: j, Path: topology.Path{lam}, Bytes: 1000}); err != nil {
				return nil, err
			}
			if err := nw.Inject(&tdmaemu.Packet{FlowID: 1, Seq: j, Path: topology.Path{lbm}, Bytes: 1000}); err != nil {
				return nil, err
			}
		}
		kernel.RunUntil(time.Duration(pkts+5) * frame.FrameDuration)
		st := nw.Stats()
		collRate := 0.0
		if st.Transmissions > 0 {
			collRate = float64(st.Violations) / float64(st.Transmissions)
		}
		results = append(results, result{"tdma", st.Delivered, st.Injected, collRate})
	}

	for _, r := range results {
		t.AddRow(r.name, r.delivered, r.injected,
			fmt.Sprintf("%.1f", 100*float64(r.delivered)/float64(r.injected)),
			fmt.Sprintf("%.3f", r.collRate))
	}
	return t, nil
}
