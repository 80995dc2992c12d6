package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"wimesh/internal/tdma"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// capCase is one capacity-search scenario from the experiment suite: every
// R3 topology x MAC combination and every R17 frame duration.
type capCase struct {
	name  string
	build func() (*topology.Network, error)
	frame *tdma.FrameConfig
	tdma  bool
	seed  int64
}

// differentialCases mirrors the R3 and R17 experiment configurations
// exactly (topologies, frame layouts and seeds), so the equality pinned
// here is the equality of the published experiment tables.
func differentialCases() []capCase {
	r3 := []struct {
		name  string
		build func() (*topology.Network, error)
	}{
		{"chain4", func() (*topology.Network, error) { return topology.Chain(4, 100) }},
		{"chain6", func() (*topology.Network, error) { return topology.Chain(6, 100) }},
		{"grid9", func() (*topology.Network, error) { return topology.Grid(3, 3, 100) }},
		{"random12", func() (*topology.Network, error) { return topology.RandomDisk(12, 600, 250, 5) }},
	}
	var cases []capCase
	for _, tc := range r3 {
		cases = append(cases,
			capCase{name: "R3-" + tc.name + "-tdma", build: tc.build, tdma: true, seed: 11},
			capCase{name: "R3-" + tc.name + "-dcf", build: tc.build, tdma: false, seed: 11},
		)
	}
	for _, fd := range []time.Duration{8 * time.Millisecond, 16 * time.Millisecond,
		32 * time.Millisecond, 64 * time.Millisecond} {
		frame := tdma.FrameConfig{FrameDuration: fd, DataSlots: 16}
		cases = append(cases, capCase{
			name:  fmt.Sprintf("R17-frame%s", fd),
			build: func() (*topology.Network, error) { return topology.Chain(6, 100) },
			frame: &frame,
			tdma:  true,
			seed:  61,
		})
	}
	return cases
}

func (tc capCase) system(t *testing.T) *System {
	t.Helper()
	topo, err := tc.build()
	if err != nil {
		t.Fatal(err)
	}
	var opts []Option
	if tc.frame != nil {
		opts = append(opts, WithFrame(*tc.frame))
	}
	sys, err := NewSystem(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func (tc capCase) config(workers int, duration time.Duration) CapacityConfig {
	return CapacityConfig{
		MaxCalls: 40,
		Run:      RunConfig{Duration: duration, Seed: tc.seed},
		Workers:  workers,
	}
}

// search runs the production capacity search on a fresh system.
func (tc capCase) search(t *testing.T, workers int, duration time.Duration) *CapacityResult {
	t.Helper()
	sys := tc.system(t)
	var res *CapacityResult
	var err error
	if tc.tdma {
		res, err = sys.VoIPCapacityTDMA(tc.config(workers, duration))
	} else {
		res, err = sys.VoIPCapacityDCF(tc.config(workers, duration))
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// linearReference is the oracle the differential tests pin the production
// search to: k = 1, 2, 3, ... over full-length sequential runs, with no
// screen and no early abort. It is assembled from production parts — the
// search's own probe (simProbe) and linearScan, gallopSearch's fallback —
// so only the way of selecting it lives in test code.
func linearReference(t *testing.T, sys *System, cfg CapacityConfig, tdma bool) *CapacityResult {
	t.Helper()
	cfg.applyDefaults()
	seq, err := newCallSequence(sys.Topo, cfg.Run.Codec, cfg.DelayBound, cfg.Downlink)
	if err != nil {
		t.Fatal(err)
	}
	res, err := linearScan(newProber(sys.simProbe(cfg.Method, cfg.Run, tdma), seq.prepare, 1), cfg.MaxCalls)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDifferentialCapacitySearch pins the analytic-screened galloping search
// (with early-abort probes, sequential and speculative-parallel) to the
// linear reference scan: byte-identical CapacityResult on every R3 topology
// x MAC combination and every R17 frame duration. Short mode runs the experiments'
// full 3 s probe duration only for a spot-check pair and a faster probe
// duration elsewhere; the -race differential target covers both worker
// settings.
func TestDifferentialCapacitySearch(t *testing.T) {
	for _, tc := range differentialCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			duration := 3 * time.Second
			if testing.Short() {
				duration = 1 * time.Second
			}
			ref := linearReference(t, tc.system(t), tc.config(1, duration), tc.tdma)
			seq := tc.search(t, 1, duration)
			if !reflect.DeepEqual(ref, seq) {
				t.Errorf("galloping (workers=1) diverged from linear scan:\nlinear: calls=%d stop=%s\ngallop: calls=%d stop=%s",
					ref.Calls, ref.StoppedBy, seq.Calls, seq.StoppedBy)
			}
			par := tc.search(t, 4, duration)
			if !reflect.DeepEqual(ref, par) {
				t.Errorf("galloping (workers=4) diverged from linear scan:\nlinear: calls=%d stop=%s\ngallop: calls=%d stop=%s",
					ref.Calls, ref.StoppedBy, par.Calls, par.StoppedBy)
			}
		})
	}
}

// TestDifferentialEarlyAbort pins the abort soundness claim directly: on a
// deliberately overloaded network, a monitored run reports the same verdict
// as the full-length run, and a healthy run is never aborted.
func TestDifferentialEarlyAbort(t *testing.T) {
	sys := chainSystem(t, 6)
	for _, calls := range []int{1, 4, 8, 12} {
		calls := calls
		t.Run(fmt.Sprintf("dcf-%dcalls", calls), func(t *testing.T) {
			fs, err := GatewayCalls(sys.Topo, calls, voip.G711(), 150*time.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			full, err := sys.RunDCF(fs, RunConfig{Duration: 2 * time.Second, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := sys.RunDCF(fs, RunConfig{Duration: 2 * time.Second, Seed: 11, AbortOnProvableFailure: true})
			if err != nil {
				t.Fatal(err)
			}
			if fast.AllAcceptable != full.AllAcceptable {
				t.Fatalf("monitored verdict %v != full-run verdict %v (aborted=%v at %s)",
					fast.AllAcceptable, full.AllAcceptable, fast.Aborted, fast.AbortedAt)
			}
			if full.AllAcceptable && fast.Aborted {
				t.Fatalf("monitor aborted a passing run at %s", fast.AbortedAt)
			}
			if !fast.Aborted && !reflect.DeepEqual(full, fast) {
				t.Error("unaborted monitored run differs from unmonitored run")
			}
		})
	}
}
