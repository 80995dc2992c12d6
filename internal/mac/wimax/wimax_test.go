package wimax

import (
	"testing"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/phy"
	"wimesh/internal/schedule"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// testFrame: control-free frame, 8 slots of 1 ms (35 OFDM symbols each).
func testFrame() tdma.FrameConfig {
	return tdma.FrameConfig{FrameDuration: 8 * time.Millisecond, DataSlots: 8}
}

func chainSetup(t *testing.T, n int, cfg tdma.FrameConfig) (*topology.Network, *tdma.Schedule, topology.Path) {
	t.Helper()
	net, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	demand := make(map[topology.LinkID]int)
	var path topology.Path
	for i := 0; i < n-1; i++ {
		l, err := net.FindLink(topology.NodeID(i), topology.NodeID(i+1))
		if err != nil {
			t.Fatal(err)
		}
		demand[l] = 1
		path = append(path, l)
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots,
		Flows: []schedule.FlowRequirement{{Path: path}}}
	s, err := schedule.OrderToSchedule(p, schedule.PathMajorOrder(p), cfg.DataSlots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, s, path
}

func TestNativeDeliveryCleanChain(t *testing.T) {
	cfg := testFrame()
	net, sched, path := chainSetup(t, 4, cfg)
	k := sim.NewKernel()
	var delays []time.Duration
	nw, err := New(Config{}, net, k, sched, 250, func(p *Packet, at time.Duration) {
		delays = append(delays, at-p.Created)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		j := j
		if _, err := k.At(time.Duration(j)*cfg.FrameDuration, func() {
			if err := nw.Inject(&Packet{Seq: j, Path: path, Bytes: 200}); err != nil {
				t.Errorf("inject: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(20 * cfg.FrameDuration)
	s := nw.Stats()
	if s.Violations != 0 {
		t.Errorf("violations = %d on a conflict-free schedule", s.Violations)
	}
	if s.Delivered != 10 {
		t.Errorf("delivered = %d, want 10 (stats %+v)", s.Delivered, s)
	}
	for i, d := range delays {
		if d > 2*cfg.FrameDuration {
			t.Errorf("packet %d delay %v", i, d)
		}
	}
}

func TestNativePacksManyVoicePacketsPerSlot(t *testing.T) {
	// One 1 ms slot at QPSK-3/4: 35 symbols, 34 payload x 36 bytes = 1224
	// bytes -> five 210-byte voice PDUs. The emulation fits only 2.
	cfg := testFrame()
	net, sched, path := chainSetup(t, 2, cfg)
	k := sim.NewKernel()
	delivered := 0
	nw, err := New(Config{QueueCap: 64}, net, k, sched, 250,
		func(*Packet, time.Duration) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if err := nw.Inject(&Packet{Seq: j, Path: path, Bytes: 200}); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(cfg.FrameDuration)
	if delivered != 5 {
		t.Errorf("delivered = %d in one frame, want all 5", delivered)
	}
	if nw.Stats().Transmissions != 1 {
		t.Errorf("transmissions = %d, want 1 burst", nw.Stats().Transmissions)
	}
}

func TestSlotCapacityArithmetic(t *testing.T) {
	frame := testFrame() // 1 ms slot = 35 symbols of 28.571... us? 28 us -> 35.
	got, err := SlotCapacityBytes(Config{}, frame, 200)
	if err != nil {
		t.Fatal(err)
	}
	// 1 ms / 28 us = 35 symbols; 34 x 36 = 1224 bytes; 1224/210 = 5 PDUs.
	if got != 1000 {
		t.Errorf("SlotCapacityBytes = %d, want 1000 (5 x 200)", got)
	}
	// Higher modulation carries more.
	hi, err := SlotCapacityBytes(Config{Modulation: phy.QAM64x34}, frame, 200)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= got {
		t.Errorf("64QAM capacity %d not above QPSK %d", hi, got)
	}
}

func TestNativeValidation(t *testing.T) {
	cfg := testFrame()
	net, sched, path := chainSetup(t, 3, cfg)
	k := sim.NewKernel()
	if _, err := New(Config{}, nil, k, sched, 250, nil); err == nil {
		t.Error("nil topology accepted")
	}
	tiny, err := tdma.NewSchedule(tdma.FrameConfig{FrameDuration: 320 * time.Microsecond, DataSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}, net, k, tiny, 250, nil); err == nil {
		t.Error("sub-symbol slots accepted")
	}
	nw, err := New(Config{}, net, k, sched, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Inject(nil); err == nil {
		t.Error("nil packet accepted")
	}
	if err := nw.Inject(&Packet{Path: path, Hop: 1}); err == nil {
		t.Error("mid-path inject accepted")
	}
	if err := nw.Inject(&Packet{Path: topology.Path{999}}); err == nil {
		t.Error("unknown link accepted")
	}
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Start(); err == nil {
		t.Error("double start accepted")
	}
}

func TestQueueCap(t *testing.T) {
	cfg := testFrame()
	net, sched, path := chainSetup(t, 3, cfg)
	k := sim.NewKernel()
	nw, err := New(Config{QueueCap: 2}, net, k, sched, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if err := nw.Inject(&Packet{Seq: j, Path: path, Bytes: 200}); err != nil {
			t.Fatal(err)
		}
	}
	if nw.Stats().DroppedQueue != 2 {
		t.Errorf("drops = %d, want 2", nw.Stats().DroppedQueue)
	}
}
