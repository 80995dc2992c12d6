package experiments

import (
	"errors"
	"fmt"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// R12Failover measures the failover behaviour of the managed TDMA system: a
// link on a ring dies mid-run, the management plane detects it, reroutes
// the affected call the other way around the ring, replans, and hot-swaps
// the schedule. The victim's loss is confined to the outage window; flows
// not using the link are untouched.
func R12Failover() (*Table, error) {
	t := &Table{
		ID:     "R12",
		Header: []string{"detect delay", "before%", "outage%", "after%", "rerouted", "failure drops"},
		Notes:  "6-ring, 3 G.711 calls, link on the 3-hop call's path fails at t=3s of 9s; loss per phase for the victim",
	}
	for _, detect := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		topo, err := topology.Ring(6, 200)
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(topo)
		if err != nil {
			return nil, err
		}
		fs, err := core.GatewayCalls(topo, 3, voip.G711(), 0, false)
		if err != nil {
			return nil, err
		}
		var victim topology.Flow
		found := false
		for _, f := range fs.Flows {
			if f.Src == 3 {
				victim, found = f, true
			}
		}
		if !found {
			return nil, errors.New("R12: no flow from node 3")
		}
		plan, err := sys.PlanVoIP(fs, core.MethodPathMajor, voip.G711())
		if err != nil {
			return nil, err
		}
		res, err := sys.RunTDMAFailover(plan, fs, core.RunConfig{Duration: 9 * time.Second, Seed: 31},
			core.FailoverConfig{
				FailedLink:  victim.Path[0],
				FailAt:      3 * time.Second,
				DetectDelay: detect,
			})
		if err != nil {
			return nil, err
		}
		for _, f := range res.Flows {
			if f.FlowID != victim.ID {
				continue
			}
			t.AddRow(detect.String(),
				fmt.Sprintf("%.1f", f.Before.Loss*100),
				fmt.Sprintf("%.1f", f.During.Loss*100),
				fmt.Sprintf("%.1f", f.After.Loss*100),
				f.Rerouted,
				res.MAC.FailureDrops)
		}
	}
	return t, nil
}
