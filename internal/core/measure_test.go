package core

import (
	"testing"
	"time"

	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

func twoFlowSet() *topology.FlowSet {
	return &topology.FlowSet{Flows: []topology.Flow{{ID: 0}, {ID: 1}}}
}

// TestObserveDeliveryAllocFree pins the zero-alloc claim for the per-packet
// delivery path: once a collector set's buffers have grown to the working
// set, recording a delivery allocates nothing (monitored or not).
func TestObserveDeliveryAllocFree(t *testing.T) {
	for _, monitored := range []bool{false, true} {
		cs := new(collectorSet) // bypass the pool: GC may empty it mid-test
		cs.reset(2, monitored)
		// Warm the delay buffers past the per-run sample count.
		for i := 0; i < 256; i++ {
			cs.observeSend(i%2, i/2, time.Duration(i)*time.Microsecond)
			cs.observeDelivery(i%2, i/2, time.Duration(i)*time.Microsecond)
		}
		allocs := testing.AllocsPerRun(50, func() {
			cs.reset(2, monitored)
			for i := 0; i < 128; i++ {
				cs.observeSend(i%2, i/2, time.Duration(i)*time.Microsecond)
				cs.observeDelivery(i%2, i/2, time.Duration(i)*time.Microsecond)
			}
		})
		if allocs != 0 {
			t.Errorf("monitored=%v: %.1f allocs per 128-packet run, want 0", monitored, allocs)
		}
	}
}

// TestMonitorCheckAllocFree pins the monitor's steady state: an abort check
// over warm collectors reuses the scratch sort buffer.
func TestMonitorCheckAllocFree(t *testing.T) {
	fs := twoFlowSet()
	cs := new(collectorSet)
	cs.reset(2, true)
	mon := newQualityMonitor(voip.G711(), 100*time.Millisecond, 900*time.Millisecond, fs.Flows, cs)
	for i := 0; i < 256; i++ {
		cs.observeSend(i%2, i/2, time.Duration(i)*time.Microsecond)
		// Delays near the toll-quality edge — above the P² screen threshold
		// so the exact (sorting) check runs, but below badDelay so the O(1)
		// loss bound does not short-circuit it.
		cs.observeDelivery(i%2, i/2, 280*time.Millisecond+time.Duration(i)*time.Microsecond)
	}
	mon.shouldAbort(500 * time.Millisecond) // warm the scratch buffer
	allocs := testing.AllocsPerRun(50, func() {
		mon.shouldAbort(500 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per monitor check, want 0", allocs)
	}
}

// TestMonitorAbortsHopelessFlow drives the monitor directly: every observed
// delay is far beyond any delay budget, so the bound must fire once enough
// of the flow's maximum future sends are already hopeless.
func TestMonitorAbortsHopelessFlow(t *testing.T) {
	fs := twoFlowSet()
	cs := new(collectorSet)
	cs.reset(2, true)
	mon := newQualityMonitor(voip.G711(), 100*time.Millisecond, 900*time.Millisecond, fs.Flows, cs)
	if mon.shouldAbort(50 * time.Millisecond) {
		t.Fatal("aborted before the measurement window opened")
	}
	for i := 0; i < 400; i++ {
		cs.observeSend(i%2, i/2, 100*time.Millisecond+time.Duration(i)*time.Millisecond)
		cs.observeDelivery(i%2, i/2, 2*time.Second)
	}
	if !mon.shouldAbort(890 * time.Millisecond) {
		t.Error("monitor did not abort a provably failing flow")
	}
	// One bad sample with a long window still ahead: the hundreds of
	// outstanding packets could all arrive instantly and absorb the bad one
	// within the 1% late budget, so no proof is possible yet.
	cs2 := new(collectorSet)
	cs2.reset(2, true)
	mon2 := newQualityMonitor(voip.G711(), 100*time.Millisecond, 10*time.Second, fs.Flows, cs2)
	cs2.observeSend(0, 0, 110*time.Millisecond)
	cs2.observeDelivery(0, 0, 2*time.Second)
	if mon2.shouldAbort(120 * time.Millisecond) {
		t.Error("monitor aborted with nearly all sends outstanding")
	}
}

func BenchmarkCollectorObserve(b *testing.B) {
	cs := new(collectorSet)
	cs.reset(2, true)
	for i := 0; i < 4096; i++ {
		cs.observeSend(i%2, i/2, time.Duration(i)*time.Microsecond)
		cs.observeDelivery(i%2, i/2, time.Duration(i)*time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	seq := 0
	for i := 0; i < b.N; i++ {
		if i&4095 == 0 {
			cs.reset(2, true)
			seq = 0
		}
		cs.observeSend(i%2, seq/2, time.Duration(i&1023)*time.Microsecond)
		cs.observeDelivery(i%2, seq/2, time.Duration(i&1023)*time.Microsecond)
		seq++
	}
}
