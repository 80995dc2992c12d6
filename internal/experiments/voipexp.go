package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// R3VoIPCapacity reproduces the headline capacity comparison: the number of
// G.711 calls to the gateway served at toll quality (E-model R >= 70) by the
// TDMA-over-WiFi emulation versus plain 802.11 DCF, across topologies.
func R3VoIPCapacity() (*Table, error) {
	t := &Table{
		ID:     "R3",
		Header: []string{"topology", "TDMA calls", "TDMA stop", "DCF calls", "DCF stop"},
		Notes:  "G.711 CBR calls to the gateway, 150 ms budget, 3 s runs; TDMA planned with the path-major order",
	}
	type topoCase struct {
		name  string
		build func() (*topology.Network, error)
	}
	cases := []topoCase{
		{"chain4", func() (*topology.Network, error) { return topology.Chain(4, 100) }},
		{"chain6", func() (*topology.Network, error) { return topology.Chain(6, 100) }},
		{"grid9", func() (*topology.Network, error) { return topology.Grid(3, 3, 100) }},
		{"random12", func() (*topology.Network, error) { return topology.RandomDisk(12, 600, 250, 5) }},
	}
	// Each (topology, MAC) capacity search is an independent deterministic
	// simulation: one point per search, results written to index-owned slots.
	results := make([]*core.CapacityResult, 2*len(cases))
	if err := forEach(len(results), func(i int) error {
		tc := cases[i/2]
		topo, err := tc.build()
		if err != nil {
			return err
		}
		sys, err := core.NewSystem(topo)
		if err != nil {
			return err
		}
		capCfg := core.CapacityConfig{
			MaxCalls: 40,
			Run:      core.RunConfig{Duration: 3 * time.Second, Seed: 11},
			Workers:  Workers(),
		}
		if i%2 == 0 {
			results[i], err = sys.VoIPCapacityTDMA(capCfg)
		} else {
			results[i], err = sys.VoIPCapacityDCF(capCfg)
		}
		return err
	}); err != nil {
		return nil, err
	}
	for c, tc := range cases {
		tdmaRes, dcfRes := results[2*c], results[2*c+1]
		t.AddRow(tc.name, tdmaRes.Calls, string(tdmaRes.StoppedBy), dcfRes.Calls, string(dcfRes.StoppedBy))
	}
	return t, nil
}

// R4DelayDistribution reproduces the per-packet delay comparison at a fixed
// VoIP load: worst-flow mean/p95/max delay, loss and E-model quality for the
// TDMA emulation vs. DCF on a 5-node chain.
func R4DelayDistribution() (*Table, error) {
	t := &Table{
		ID:     "R4",
		Header: []string{"mac", "calls", "mean", "p95", "max", "loss%", "min R", "MOS"},
		Notes:  "5-node chain, G.711 calls to the gateway, 5 s runs; worst flow per run",
	}
	codec := voip.G711()
	callCounts := []int{2, 4}
	// One independent point per (load, MAC); each builds its own topology
	// and system so concurrent points share nothing.
	results := make([]*core.RunResult, 2*len(callCounts))
	if err := forEach(len(results), func(i int) error {
		calls := callCounts[i/2]
		topo, err := topology.Chain(5, 100)
		if err != nil {
			return err
		}
		sys, err := core.NewSystem(topo)
		if err != nil {
			return err
		}
		fs, err := core.GatewayCalls(topo, calls, codec, 150*time.Millisecond, false)
		if err != nil {
			return err
		}
		runCfg := core.RunConfig{Duration: 5 * time.Second, Seed: 13, Codec: codec}
		if i%2 == 0 {
			plan, err := sys.PlanVoIP(fs, core.MethodPathMajor, codec)
			if err != nil {
				return err
			}
			results[i], err = sys.RunTDMA(plan, fs, runCfg)
			return err
		}
		var errRun error
		results[i], errRun = sys.RunDCF(fs, runCfg)
		return errRun
	}); err != nil {
		return nil, err
	}
	for c, calls := range callCounts {
		addWorstRow(t, "tdma", calls, results[2*c])
		addWorstRow(t, "dcf", calls, results[2*c+1])
	}
	return t, nil
}

func addWorstRow(t *Table, mac string, calls int, res *core.RunResult) {
	var worst core.FlowResult
	first := true
	for _, f := range res.Flows {
		if first || f.P95Delay > worst.P95Delay {
			worst = f
			first = false
		}
	}
	t.AddRow(mac, calls,
		worst.MeanDelay.Round(10*time.Microsecond).String(),
		worst.P95Delay.Round(10*time.Microsecond).String(),
		worst.MaxDelay.Round(10*time.Microsecond).String(),
		fmt.Sprintf("%.2f", worst.Loss*100),
		fmt.Sprintf("%.1f", res.MinR),
		fmt.Sprintf("%.2f", worst.Quality.MOS))
}
