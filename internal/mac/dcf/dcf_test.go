package dcf

import (
	"testing"
	"time"

	"wimesh/internal/sim"
	"wimesh/internal/topology"
)

func chainTopo(t *testing.T, n int) *topology.Network {
	t.Helper()
	net, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSingleHopDelivery(t *testing.T) {
	net := chainTopo(t, 2)
	k := sim.NewKernel()
	var got []*Packet
	var at time.Duration
	nw, err := New(Config{Seed: 1}, net, k, 250, func(p *Packet, t time.Duration) {
		got = append(got, p)
		at = t
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{Route: []topology.NodeID{0, 1}, Bytes: 200}
	if err := nw.Inject(p); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	// Delay: DIFS (50us) + backoff (0..31 slots of 20us) + exchange.
	exchange, err := nw.cfg.PHY.DataExchangeTime(200, 11e6)
	if err != nil {
		t.Fatal(err)
	}
	minDelay := nw.cfg.PHY.DIFS() + exchange
	maxDelay := minDelay + 31*nw.cfg.PHY.SlotTime
	if at < minDelay || at > maxDelay {
		t.Errorf("delivery at %v, want in [%v, %v]", at, minDelay, maxDelay)
	}
	s := nw.Stats()
	if s.Injected != 1 || s.Delivered != 1 || s.Collisions != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMultiHopForwarding(t *testing.T) {
	net := chainTopo(t, 5)
	k := sim.NewKernel()
	var deliveredHops int
	nw, err := New(Config{Seed: 2}, net, k, 250, func(p *Packet, _ time.Duration) {
		deliveredHops = p.Hop
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{Route: []topology.NodeID{0, 1, 2, 3, 4}, Bytes: 500}
	if err := nw.Inject(p); err != nil {
		t.Fatal(err)
	}
	k.Run()
	s := nw.Stats()
	if s.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (stats %+v)", s.Delivered, s)
	}
	if deliveredHops != 3 {
		t.Errorf("final hop index = %d, want 3", deliveredHops)
	}
	if s.Transmissions < 4 {
		t.Errorf("transmissions = %d, want >= 4", s.Transmissions)
	}
}

func TestContendingSendersAllDeliver(t *testing.T) {
	// Three senders in range of each other and the receiver.
	net := topology.NewNetwork()
	r := net.AddNode(0, 0)
	s1 := net.AddNode(50, 0)
	s2 := net.AddNode(0, 50)
	s3 := net.AddNode(-50, 0)
	k := sim.NewKernel()
	delivered := 0
	nw, err := New(Config{Seed: 3}, net, k, 200, func(*Packet, time.Duration) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []topology.NodeID{s1, s2, s3} {
		for j := 0; j < 5; j++ {
			p := &Packet{FlowID: i, Seq: j, Route: []topology.NodeID{s, r}, Bytes: 1000}
			if err := nw.Inject(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Run()
	if delivered != 15 {
		t.Errorf("delivered = %d, want 15 (stats %+v)", delivered, nw.Stats())
	}
}

func TestHiddenTerminalsCollide(t *testing.T) {
	// Senders 0 and 2 cannot hear each other but share receiver 1.
	net := topology.NewNetwork()
	a := net.AddNode(0, 0)
	mid := net.AddNode(100, 0)
	b := net.AddNode(200, 0)
	k := sim.NewKernel()
	nw, err := New(Config{Seed: 4}, net, k, 150, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 20; j++ {
		if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{a, mid}, Bytes: 1500}); err != nil {
			t.Fatal(err)
		}
		if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{b, mid}, Bytes: 1500}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	s := nw.Stats()
	if s.Collisions == 0 {
		t.Errorf("no collisions with hidden terminals (stats %+v)", s)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	net := chainTopo(t, 2)
	k := sim.NewKernel()
	nw, err := New(Config{Seed: 5, QueueCap: 4}, net, k, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inject 10 packets back to back before the kernel runs: only 4 fit
	// (the first dequeues only once the kernel runs).
	for j := 0; j < 10; j++ {
		if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{0, 1}, Bytes: 200}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	s := nw.Stats()
	if s.DroppedQueue != 6 {
		t.Errorf("queue drops = %d, want 6", s.DroppedQueue)
	}
	if s.Delivered != 4 {
		t.Errorf("delivered = %d, want 4", s.Delivered)
	}
}

func TestInjectValidation(t *testing.T) {
	net := chainTopo(t, 2)
	k := sim.NewKernel()
	nw, err := New(Config{}, net, k, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Inject(nil); err == nil {
		t.Error("nil packet accepted")
	}
	if err := nw.Inject(&Packet{Route: []topology.NodeID{0}}); err == nil {
		t.Error("single-node route accepted")
	}
	if err := nw.Inject(&Packet{Route: []topology.NodeID{0, 1}, Hop: 1}); err == nil {
		t.Error("non-zero hop accepted")
	}
	if err := nw.Inject(&Packet{Route: []topology.NodeID{42, 1}}); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestNewValidation(t *testing.T) {
	net := chainTopo(t, 2)
	k := sim.NewKernel()
	if _, err := New(Config{}, nil, k, 250, nil); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(Config{DataRateBps: 54e6}, net, k, 250, nil); err == nil {
		t.Error("unsupported rate accepted")
	}
}

func TestSaturationThroughputPlausible(t *testing.T) {
	// One saturated 1500-byte stream at 11 Mb/s should achieve roughly
	// 50-85% MAC efficiency under DCF with long preambles.
	net := chainTopo(t, 2)
	k := sim.NewKernel()
	var bits float64
	nw, err := New(Config{Seed: 6, QueueCap: 10000}, net, k, 250, func(p *Packet, _ time.Duration) {
		bits += float64(8 * p.Bytes)
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 600; j++ {
		if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{0, 1}, Bytes: 1500}); err != nil {
			t.Fatal(err)
		}
	}
	duration := time.Second
	k.RunUntil(duration)
	tput := bits / duration.Seconds()
	if tput < 4e6 || tput > 9.5e6 {
		t.Errorf("saturation throughput = %.2f Mb/s, want 4-9.5", tput/1e6)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() Stats {
		net := chainTopo(t, 4)
		k := sim.NewKernel()
		nw, err := New(Config{Seed: 77}, net, k, 250, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 30; j++ {
			if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{0, 1, 2, 3}, Bytes: 700}); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		return nw.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different stats: %+v vs %+v", a, b)
	}
}

func TestRTSCTSMitigatesHiddenTerminals(t *testing.T) {
	// Senders 0 and 2 are hidden from each other (range 150, distance 200)
	// and share receiver 1. RTS/CTS reserves the medium around the receiver
	// so the hidden sender defers.
	build := func(rtscts bool) Stats {
		net := topology.NewNetwork()
		a := net.AddNode(0, 0)
		mid := net.AddNode(100, 0)
		b := net.AddNode(200, 0)
		k := sim.NewKernel()
		nw, err := New(Config{Seed: 9, RTSCTS: rtscts, QueueCap: 256}, net, k, 150, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 50; j++ {
			if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{a, mid}, Bytes: 1500}); err != nil {
				t.Fatal(err)
			}
			if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{b, mid}, Bytes: 1500}); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		return nw.Stats()
	}
	plain := build(false)
	protected := build(true)
	plainRate := float64(plain.Collisions) / float64(plain.Transmissions)
	protRate := float64(protected.Collisions) / float64(protected.Transmissions)
	if protRate >= plainRate {
		t.Errorf("RTS/CTS collision rate %.3f not below basic %.3f", protRate, plainRate)
	}
	if protected.DroppedRetries > plain.DroppedRetries {
		t.Errorf("RTS/CTS dropped more: %d vs %d", protected.DroppedRetries, plain.DroppedRetries)
	}
}

func TestRTSCTSAddsOverheadWithoutHiddenTerminals(t *testing.T) {
	// Single saturated pair: RTS/CTS only costs airtime.
	run := func(rtscts bool) time.Duration {
		net := chainTopo(t, 2)
		k := sim.NewKernel()
		delivered := 0
		nw, err := New(Config{Seed: 10, RTSCTS: rtscts, QueueCap: 512}, net, k, 250,
			func(*Packet, time.Duration) { delivered++ })
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{0, 1}, Bytes: 1500}); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		if delivered != 100 {
			t.Fatalf("delivered = %d", delivered)
		}
		return k.Now()
	}
	plain := run(false)
	protected := run(true)
	if protected <= plain {
		t.Errorf("RTS/CTS finished in %v, not slower than basic %v", protected, plain)
	}
}

func TestChannelLossRetransmitted(t *testing.T) {
	net := chainTopo(t, 2)
	k := sim.NewKernel()
	delivered := 0
	nw, err := New(Config{Seed: 13, QueueCap: 512}, net, k, 250,
		func(*Packet, time.Duration) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.medium.SetLossModel(func(_, _ topology.NodeID) float64 { return 0.3 }, 14); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 100; j++ {
		if err := nw.Inject(&Packet{Seq: j, Route: []topology.NodeID{0, 1}, Bytes: 500}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	st := nw.Stats()
	if st.ChannelLosses == 0 {
		t.Fatal("no channel losses recorded")
	}
	// DCF retries (7) make residual loss negligible at 30% PER.
	if delivered < 99 {
		t.Errorf("delivered = %d/100 with retries (stats %+v)", delivered, st)
	}
}
