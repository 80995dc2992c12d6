package mac

import (
	"testing"
	"time"

	"wimesh/internal/sim"
	"wimesh/internal/topology"
)

// line builds nodes on a line at the given x positions with no links (the
// medium only needs geometry).
func line(t *testing.T, xs ...float64) *topology.Network {
	t.Helper()
	net := topology.NewNetwork()
	for _, x := range xs {
		net.AddNode(x, 0)
	}
	return net
}

func TestTransmitDelivers(t *testing.T) {
	net := line(t, 0, 100)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 250)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delivery
	if err := m.SetReceiver(1, func(d Delivery) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Transmit(Frame{From: 0, To: 1, Bytes: 100}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	if got[0].Collided {
		t.Error("lone transmission collided")
	}
	if got[0].At != time.Millisecond {
		t.Errorf("delivered at %v, want 1ms", got[0].At)
	}
}

func TestOverlappingAudibleTransmissionsCollide(t *testing.T) {
	// 0 and 2 both transmit to 1; all within range.
	net := line(t, 0, 100, 200)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 250)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delivery
	if err := m.SetReceiver(1, func(d Delivery) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Transmit(Frame{From: 0, To: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := k.After(200*time.Microsecond, func() {
		if err := m.Transmit(Frame{From: 2, To: 1}, time.Millisecond); err != nil {
			t.Errorf("second transmit: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(got))
	}
	for i, d := range got {
		if !d.Collided {
			t.Errorf("delivery %d did not collide", i)
		}
	}
}

func TestSpatialReuseNoCollision(t *testing.T) {
	// 0->1 and 3->4 are far apart: both succeed despite overlapping.
	net := line(t, 0, 100, 500, 1000, 1100)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 250)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	if err := m.SetReceiver(1, func(d Delivery) {
		if !d.Collided {
			ok++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetReceiver(4, func(d Delivery) {
		if !d.Collided {
			ok++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Transmit(Frame{From: 0, To: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m.Transmit(Frame{From: 3, To: 4}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if ok != 2 {
		t.Errorf("successful deliveries = %d, want 2", ok)
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// 0 and 2 cannot hear each other (range 150, distance 200) but both
	// reach 1: classic hidden-terminal collision at 1.
	net := line(t, 0, 100, 200)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 150)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delivery
	if err := m.SetReceiver(1, func(d Delivery) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	// 2 cannot carrier-sense 0's transmission.
	if err := m.Transmit(Frame{From: 0, To: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if m.Busy(2) {
		t.Error("node 2 hears node 0 at range 150")
	}
	if err := m.Transmit(Frame{From: 2, To: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got) != 2 || !got[0].Collided || !got[1].Collided {
		t.Errorf("hidden terminal: deliveries %+v", got)
	}
}

func TestBusyAndEpoch(t *testing.T) {
	net := line(t, 0, 100)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 250)
	if err != nil {
		t.Fatal(err)
	}
	if m.Busy(1) {
		t.Error("fresh medium busy")
	}
	e0 := m.BusyEpoch(1)
	if err := m.Transmit(Frame{From: 0, To: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !m.Busy(1) || !m.Busy(0) {
		t.Error("medium not busy during transmission")
	}
	if m.BusyEpoch(1) != e0+1 {
		t.Errorf("epoch = %d, want %d", m.BusyEpoch(1), e0+1)
	}
	k.Run()
	if m.Busy(1) {
		t.Error("medium busy after transmission ended")
	}
}

func TestWhenIdle(t *testing.T) {
	net := line(t, 0, 100)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 250)
	if err != nil {
		t.Fatal(err)
	}
	var calls []time.Duration
	// Idle now: fires via a zero-delay event.
	if err := m.WhenIdle(1, func() { calls = append(calls, k.Now()) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Transmit(Frame{From: 0, To: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Busy: fires when the channel clears.
	if err := m.WhenIdle(1, func() { calls = append(calls, k.Now()) }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(calls) != 2 {
		t.Fatalf("calls = %d, want 2", len(calls))
	}
	if calls[0] != 0 {
		t.Errorf("immediate waiter at %v, want 0", calls[0])
	}
	if calls[1] != time.Millisecond {
		t.Errorf("busy waiter at %v, want 1ms", calls[1])
	}
}

func TestValidation(t *testing.T) {
	net := line(t, 0, 100)
	k := sim.NewKernel()
	if _, err := NewMedium(nil, k, 250); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewMedium(net, k, 0); err == nil {
		t.Error("zero range accepted")
	}
	m, err := NewMedium(net, k, 250)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Transmit(Frame{From: 0, To: 1}, 0); err == nil {
		t.Error("zero airtime accepted")
	}
	if err := m.Transmit(Frame{From: 0, To: 99}, time.Millisecond); err == nil {
		t.Error("unknown destination accepted")
	}
	if err := m.SetReceiver(0, nil); err == nil {
		t.Error("nil receiver accepted")
	}
	if err := m.SetReceiver(0, func(Delivery) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetReceiver(0, func(Delivery) {}); err == nil {
		t.Error("duplicate receiver accepted")
	}
}

func TestNonOverlappingSequentialTransmissionsSucceed(t *testing.T) {
	net := line(t, 0, 100, 200)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 250)
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	if err := m.SetReceiver(1, func(d Delivery) {
		if !d.Collided {
			good++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Transmit(Frame{From: 0, To: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := k.After(time.Millisecond, func() {
		if err := m.Transmit(Frame{From: 2, To: 1}, time.Millisecond); err != nil {
			t.Errorf("second transmit: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if good != 2 {
		t.Errorf("good deliveries = %d, want 2", good)
	}
}

func TestBusyTimeMergesOverlaps(t *testing.T) {
	net := line(t, 0, 100, 200)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping 1 ms transmissions from 0 and 2, offset by 0.5 ms: node 1
	// hears a single 1.5 ms busy period.
	if err := m.Transmit(Frame{From: 0, To: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := k.After(500*time.Microsecond, func() {
		if err := m.Transmit(Frame{From: 2, To: 1}, time.Millisecond); err != nil {
			t.Errorf("second transmit: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Node 1 stays busy from 0 to 1.5 ms and turns busy once.
	for _, at := range []time.Duration{900 * time.Microsecond, 1400 * time.Microsecond} {
		if _, err := k.After(at, func() {
			if !m.Busy(1) {
				t.Errorf("node 1 idle at %v, inside the merged busy period", k.Now())
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if m.Busy(1) {
		t.Error("node 1 still busy after both transmissions")
	}
	if got := m.BusyEpoch(1); got != 1 {
		t.Errorf("BusyEpoch(1) = %d, want 1 (one merged busy period)", got)
	}
}
