package timesync

import (
	"math"
	"testing"
	"time"

	"wimesh/internal/sim"
	"wimesh/internal/topology"
)

func TestClockReadAndError(t *testing.T) {
	c := Clock{Offset: time.Millisecond, DriftPPM: 10}
	// At t=1s: local = 1s + 1ms + 10us.
	got := c.Read(time.Second)
	want := time.Second + time.Millisecond + 10*time.Microsecond
	if got != want {
		t.Errorf("Read = %v, want %v", got, want)
	}
	if e := c.Error(time.Second); e != time.Millisecond+10*time.Microsecond {
		t.Errorf("Error = %v", e)
	}
}

func TestClockAdjustTo(t *testing.T) {
	c := Clock{Offset: 5 * time.Millisecond, DriftPPM: 50}
	c.AdjustTo(time.Second, time.Second) // align exactly at t=1s
	if e := c.Error(time.Second); e != 0 {
		t.Errorf("error after adjust = %v, want 0", e)
	}
	// Drift persists: error grows again.
	if e := c.Error(2 * time.Second); e == 0 {
		t.Error("drift did not accumulate after adjust")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{PerHopError: -1, ResyncInterval: time.Second},
		{ResyncInterval: 0},
		{ResyncInterval: time.Second, MaxDriftPPM: -1},
		{ResyncInterval: time.Second, InitialOffsetStd: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func depthsForChain(t *testing.T, n int) map[topology.NodeID]int {
	t.Helper()
	net, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := net.BuildRoutingTree()
	if err != nil {
		t.Fatal(err)
	}
	return rt.Depth
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(), nil, 1); err == nil {
		t.Error("empty depths accepted")
	}
	if _, err := New(DefaultConfig(), map[topology.NodeID]int{0: -1}, 1); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := New(Config{}, map[topology.NodeID]int{0: 0}, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGatewayIsReference(t *testing.T) {
	depths := depthsForChain(t, 4)
	s, err := New(DefaultConfig(), depths, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Resync(0)
	e, err := s.ErrorAt(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("gateway error = %v, want 0", e)
	}
}

func TestResyncBoundsError(t *testing.T) {
	depths := depthsForChain(t, 5)
	cfg := DefaultConfig()
	s, err := New(cfg, depths, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Before any resync, node 4 carries its initial (ms-scale) offset.
	e0, err := s.ErrorAt(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Resync(0)
	// Right after resync the error is a few per-hop errors only.
	e1, err := s.ErrorAt(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if abs(e1) > 20*abs(time.Duration(float64(cfg.PerHopError))*4) && abs(e1) >= abs(e0) {
		t.Errorf("resync did not reduce error: before %v, after %v", e0, e1)
	}
	if abs(e1) > time.Millisecond {
		t.Errorf("post-resync error %v implausibly large", e1)
	}
}

func TestErrorGrowsWithDriftBetweenResyncs(t *testing.T) {
	depths := depthsForChain(t, 3)
	cfg := DefaultConfig()
	cfg.PerHopError = 0 // isolate drift
	s, err := New(cfg, depths, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.Resync(0)
	e0, err := s.ErrorAt(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.ErrorAt(2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if abs(e1) <= abs(e0) {
		t.Errorf("drift error did not grow: %v then %v", e0, e1)
	}
}

func TestStartSchedulesRounds(t *testing.T) {
	depths := depthsForChain(t, 4)
	cfg := DefaultConfig()
	cfg.ResyncInterval = 100 * time.Millisecond
	s, err := New(cfg, depths, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	stop, err := s.Start(k)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(time.Second)
	// 11 rounds fire in [0, 1s] (t=0 included).
	if k.Processed() < 10 {
		t.Errorf("only %d events processed, want >= 10 rounds", k.Processed())
	}
	// Error stays bounded after many rounds.
	e, err := s.ErrorAt(3, k.Now())
	if err != nil {
		t.Fatal(err)
	}
	if abs(e) > time.Millisecond {
		t.Errorf("steady-state error %v too large", e)
	}
	stop()
	before := k.Pending()
	k.RunUntil(2 * time.Second)
	if k.Pending() > before {
		t.Error("rounds kept scheduling after stop")
	}
}

func TestEmpiricalErrorMatchesPredictionScale(t *testing.T) {
	// Many resyncs of a depth-4 node: the sample std of the post-resync
	// error should be within 3x of sqrt(4)*perHop.
	depths := map[topology.NodeID]int{0: 0, 1: 4}
	cfg := DefaultConfig()
	cfg.MaxDriftPPM = 0
	s, err := New(cfg, depths, 11)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumsq float64
	const n = 400
	for i := 0; i < n; i++ {
		s.Resync(0)
		e, err := s.ErrorAt(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := float64(e)
		sum += f
		sumsq += f * f
	}
	std := math.Sqrt(sumsq/n - (sum/n)*(sum/n))
	want := float64(cfg.PerHopError) * 2 // sqrt(4) hops
	if std < want/3 || std > want*3 {
		t.Errorf("empirical std %v, want within 3x of %v",
			time.Duration(std), time.Duration(want))
	}
}

func TestErrorAtUnknownNode(t *testing.T) {
	s, err := New(DefaultConfig(), map[topology.NodeID]int{0: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ErrorAt(42, 0); err == nil {
		t.Error("unknown node accepted")
	}
}

func abs(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
