package core

import (
	"strings"
	"testing"
	"time"

	"wimesh/internal/tdma"
	"wimesh/internal/timesync"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

func chainSystem(t *testing.T, n int) *System {
	t.Helper()
	topo, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(topo)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemDefaults(t *testing.T) {
	sys := chainSystem(t, 4)
	if sys.Graph == nil {
		t.Fatal("no conflict graph")
	}
	if sys.Frame.DataSlots != 16 {
		t.Errorf("default frame slots = %d, want 16", sys.Frame.DataSlots)
	}
	if _, err := NewSystem(nil); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestNewSystemOptions(t *testing.T) {
	topo, err := topology.Chain(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	frame := tdma.FrameConfig{FrameDuration: 40 * time.Millisecond, DataSlots: 32}
	sys, err := NewSystem(topo, WithFrame(frame))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Frame.DataSlots != 32 {
		t.Errorf("options not applied: %+v", sys)
	}
	if _, err := NewSystem(topo, WithFrame(tdma.FrameConfig{})); err == nil {
		t.Error("invalid frame accepted")
	}
}

func TestBytesPerSlot(t *testing.T) {
	sys := chainSystem(t, 3)
	b, err := sys.BytesPerSlot(voip.G711().PacketBytes())
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 {
		t.Errorf("BytesPerSlot = %d, want > 0", b)
	}
}

func TestPlanMethodsOnChain(t *testing.T) {
	sys := chainSystem(t, 4)
	fs, err := GatewayCalls(sys.Topo, 2, voip.G711(), 150*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []PlanMethod{MethodILP, MethodMinMaxDelay, MethodPathMajor, MethodTreeOrder, MethodGreedy, MethodPartitioned} {
		t.Run(m.String(), func(t *testing.T) {
			plan, err := sys.PlanVoIP(fs, m, voip.G711())
			if err != nil {
				t.Fatalf("Plan(%v): %v", m, err)
			}
			if err := plan.Schedule.Validate(sys.Graph); err != nil {
				t.Errorf("schedule invalid: %v", err)
			}
			if plan.WindowSlots <= 0 || plan.WindowSlots > sys.Frame.DataSlots {
				t.Errorf("window = %d", plan.WindowSlots)
			}
			if plan.MaxSchedulingDelay <= 0 {
				t.Errorf("max scheduling delay = %v", plan.MaxSchedulingDelay)
			}
		})
	}
}

func TestPlanValidation(t *testing.T) {
	sys := chainSystem(t, 3)
	if _, err := sys.Plan(nil, MethodGreedy, 200); err == nil {
		t.Error("nil flow set accepted")
	}
	fs := topology.NewFlowSet(sys.Topo)
	if _, err := sys.Plan(fs, MethodGreedy, 200); err == nil {
		t.Error("empty flow set accepted")
	}
	if _, err := fs.Add(1, 0, 64e3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Plan(fs, MethodGreedy, -5); err == nil {
		t.Error("negative packet size accepted")
	}
	if _, err := sys.Plan(fs, PlanMethod(99), 200); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestRunTDMACleanChain(t *testing.T) {
	sys := chainSystem(t, 4)
	fs, err := GatewayCalls(sys.Topo, 2, voip.G711(), 150*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.PlanVoIP(fs, MethodPathMajor, voip.G711())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunTDMA(plan, fs, RunConfig{Duration: 4 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	for _, f := range res.Flows {
		if f.Sent == 0 {
			t.Errorf("flow %d sent nothing", f.FlowID)
		}
		if f.Loss != 0 {
			t.Errorf("flow %d loss = %g, want 0 (conflict-free schedule, ideal clocks)", f.FlowID, f.Loss)
		}
		// Worst-case TDMA delay: about one frame of queueing wait plus the
		// scheduling delay.
		if f.MaxDelay > 3*sys.Frame.FrameDuration {
			t.Errorf("flow %d max delay = %v", f.FlowID, f.MaxDelay)
		}
	}
	if !res.AllAcceptable {
		t.Errorf("clean TDMA run not acceptable: minR=%g", res.MinR)
	}
	if res.TDMA == nil || res.TDMA.Violations != 0 {
		t.Errorf("TDMA stats = %+v", res.TDMA)
	}
}

func TestRunTDMAWithSync(t *testing.T) {
	sys := chainSystem(t, 4)
	fs, err := GatewayCalls(sys.Topo, 1, voip.G711(), 150*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.PlanVoIP(fs, MethodPathMajor, voip.G711())
	if err != nil {
		t.Fatal(err)
	}
	syncCfg := timesync.DefaultConfig()
	res, err := sys.RunTDMA(plan, fs, RunConfig{Duration: 3 * time.Second, Seed: 2, Sync: &syncCfg})
	if err != nil {
		t.Fatal(err)
	}
	// 10 us per-hop error against a 100 us guard: still clean.
	if res.TDMA.Violations != 0 {
		t.Errorf("violations = %d with default sync and guard", res.TDMA.Violations)
	}
	if !res.AllAcceptable {
		t.Errorf("run with sync not acceptable: minR=%g", res.MinR)
	}
}

func TestRunDCFChain(t *testing.T) {
	sys := chainSystem(t, 4)
	fs, err := GatewayCalls(sys.Topo, 1, voip.G711(), 150*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunDCF(fs, RunConfig{Duration: 3 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Sent == 0 || f.Received == 0 {
		t.Fatalf("flow did not run: %+v", f)
	}
	if res.DCF == nil || res.DCF.Transmissions == 0 {
		t.Errorf("DCF stats = %+v", res.DCF)
	}
	// One call over a lightly loaded chain is fine under DCF too.
	if !res.AllAcceptable {
		t.Errorf("single DCF call not acceptable: minR=%g, loss=%g, p95=%v",
			res.MinR, f.Loss, f.P95Delay)
	}
}

func TestRunValidation(t *testing.T) {
	sys := chainSystem(t, 3)
	fs, err := GatewayCalls(sys.Topo, 1, voip.G711(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunTDMA(nil, fs, RunConfig{}); err == nil {
		t.Error("nil plan accepted")
	}
	plan, err := sys.PlanVoIP(fs, MethodGreedy, voip.G711())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunTDMA(plan, topology.NewFlowSet(sys.Topo), RunConfig{}); err == nil {
		t.Error("empty flow set accepted")
	}
	if _, err := sys.RunDCF(topology.NewFlowSet(sys.Topo), RunConfig{}); err == nil {
		t.Error("empty flow set accepted by RunDCF")
	}
	// A negative QueueCap panicked in dcf.New and was ignored by RunTDMA; a
	// negative Duration ran nothing and reported a result. Both MACs refuse
	// both, naming the field.
	for _, tc := range []struct {
		field string
		cfg   RunConfig
	}{
		{"QueueCap", RunConfig{Duration: time.Second, QueueCap: -2}},
		{"Duration", RunConfig{Duration: -time.Second}},
	} {
		if _, err := sys.RunTDMA(plan, fs, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("RunTDMA negative %s: err = %v, want an error naming the field", tc.field, err)
		}
		if _, err := sys.RunDCF(fs, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("RunDCF negative %s: err = %v, want an error naming the field", tc.field, err)
		}
	}
}

func TestGatewayCalls(t *testing.T) {
	sys := chainSystem(t, 4)
	fs, err := GatewayCalls(sys.Topo, 5, voip.G711(), 100*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Flows) != 5 {
		t.Fatalf("flows = %d, want 5", len(fs.Flows))
	}
	for _, f := range fs.Flows {
		if f.Dst != 0 {
			t.Errorf("flow %d dst = %d, want gateway 0", f.ID, f.Dst)
		}
		if f.DelayBound != 100*time.Millisecond {
			t.Errorf("flow %d bound = %v", f.ID, f.DelayBound)
		}
	}
	// Downlink doubles the flows.
	fs2, err := GatewayCalls(sys.Topo, 2, voip.G711(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs2.Flows) != 4 {
		t.Errorf("duplex flows = %d, want 4", len(fs2.Flows))
	}
	// No gateway: error.
	bare := topology.NewNetwork()
	bare.AddNode(0, 0)
	if _, err := GatewayCalls(bare, 1, voip.G711(), 0, false); err == nil {
		t.Error("no-gateway topology accepted")
	}
}

func TestVoIPCapacityTDMASmallChain(t *testing.T) {
	sys := chainSystem(t, 3)
	res, err := sys.VoIPCapacityTDMA(CapacityConfig{
		MaxCalls: 4,
		Run:      RunConfig{Duration: 2 * time.Second, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls < 1 {
		t.Errorf("capacity = %d, want >= 1 (stopped by %s)", res.Calls, res.StoppedBy)
	}
	if res.Calls >= 1 && res.LastGood == nil {
		t.Error("no LastGood run recorded")
	}
}

func TestVoIPCapacityDCFSmallChain(t *testing.T) {
	sys := chainSystem(t, 3)
	res, err := sys.VoIPCapacityDCF(CapacityConfig{
		MaxCalls: 2,
		Run:      RunConfig{Duration: 2 * time.Second, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls < 1 {
		t.Errorf("DCF capacity = %d, want >= 1", res.Calls)
	}
}

func TestMeasurementWindow(t *testing.T) {
	cfg := RunConfig{Duration: 10 * time.Second, WarmUp: time.Second}
	lo, hi := measurementWindow(cfg, 20*time.Millisecond)
	if lo != time.Second {
		t.Errorf("lo = %v", lo)
	}
	if hi >= cfg.Duration || hi <= lo {
		t.Errorf("hi = %v", hi)
	}
	// Degenerate short run: falls back to the whole run.
	short := RunConfig{Duration: 300 * time.Millisecond, WarmUp: 200 * time.Millisecond}
	lo, hi = measurementWindow(short, 20*time.Millisecond)
	if hi != short.Duration || lo >= hi {
		t.Errorf("short window = [%v, %v)", lo, hi)
	}
}

func TestPlanHonorsPerLinkRates(t *testing.T) {
	// Two identical chains except one has a slow middle link: the slow
	// chain needs more slots for the same call.
	build := func(slow bool) int {
		topo, err := topology.Chain(4, 100)
		if err != nil {
			t.Fatal(err)
		}
		if slow {
			l, err := topo.FindLink(2, 1)
			if err != nil {
				t.Fatal(err)
			}
			// 5.5 Mb/s halves the packets per slot on the middle link.
			if err := topo.SetLinkRate(l, 5.5e6); err != nil {
				t.Fatal(err)
			}
		}
		sys, err := NewSystem(topo)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := GatewayCalls(topo, 1, voip.G711(), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		// Only the farthest caller crosses the middle link; round-robin
		// caller 1 is node 1 (1 hop). Use 3 calls so node 3's call exists.
		fs, err = GatewayCalls(topo, 3, voip.G711(), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sys.PlanVoIP(fs, MethodGreedy, voip.G711())
		if err != nil {
			t.Fatal(err)
		}
		return plan.WindowSlots
	}
	fast := build(false)
	slowW := build(true)
	if slowW <= fast {
		t.Errorf("slow-link plan %d slots not above fast plan %d", slowW, fast)
	}
}

func TestRunTDMAWithMixedRates(t *testing.T) {
	topo, err := topology.Chain(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	l, err := topo.FindLink(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetLinkRate(l, 2e6); err != nil {
		t.Fatal(err)
	}
	// Slow links need longer slots: 8 slots of 2.5 ms.
	sys, err := NewSystem(topo, WithFrame(tdma.FrameConfig{
		FrameDuration: 20 * time.Millisecond, DataSlots: 8,
	}))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := GatewayCalls(topo, 3, voip.G711(), 150*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.PlanVoIP(fs, MethodPathMajor, voip.G711())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunTDMA(plan, fs, RunConfig{Duration: 3 * time.Second, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if f.Loss != 0 {
			t.Errorf("flow %d loss = %g over mixed-rate chain", f.FlowID, f.Loss)
		}
	}
	if !res.AllAcceptable {
		t.Errorf("mixed-rate run not acceptable: minR=%g", res.MinR)
	}
}
