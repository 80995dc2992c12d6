package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// R9MultiService reproduces the multi-service trade-off of the sibling
// paper (*Quality-of-Service Provisioning for Multi-service TDMA Mesh
// Networks*): guaranteed VoIP flows claim the minimum window the ILP search
// finds, and best-effort traffic receives every residual conflict-free
// (slot, link) opportunity. As voice load grows, the residue — and with it
// the best-effort capacity — shrinks.
func R9MultiService() (*Table, error) {
	t := &Table{
		ID:     "R9",
		Header: []string{"calls", "voice window", "BE slot-grants", "BE capacity Mb/s", "min BE/link"},
		Notes:  "6-node chain, 16-slot frame, G.711 calls to the gateway; BE = the downlinks, 1000-byte packets, 100 us guard",
	}
	cfg := emuFrame(16)
	topo, err := topology.Chain(6, 100)
	if err != nil {
		return nil, err
	}
	for calls := 0; calls <= 5; calls++ {
		p, err := uplinkProblem(topo, maxInt(calls, 1), cfg)
		if err != nil {
			return nil, err
		}
		var base *tdma.Schedule
		window := 0
		if calls == 0 {
			// No guaranteed traffic: empty base schedule.
			p.Demand = map[topology.LinkID]int{}
			p.Flows = nil
			base, err = tdma.NewSchedule(cfg)
			if err != nil {
				return nil, err
			}
		} else {
			win, s, _, err := schedule.MinSlots(p, cfg, milp.Options{MaxNodes: 200_000})
			if err != nil {
				return nil, err
			}
			base, window = s, win
		}
		// Best-effort candidates: the downlinks (gateway toward the edge),
		// i.e. bulk downloads sharing the frame with the voice uplinks.
		var be []topology.LinkID
		for i := 0; i < 5; i++ {
			l, err := topo.FindLink(topology.NodeID(i), topology.NodeID(i+1))
			if err != nil {
				return nil, err
			}
			be = append(be, l)
		}
		ext, counts, err := schedule.FillResidual(p, base, be)
		if err != nil {
			return nil, err
		}
		if err := ext.Validate(p.Graph); err != nil {
			return nil, fmt.Errorf("R9: extended schedule invalid: %w", err)
		}
		total, minPerLink := 0, 1<<30
		for _, l := range be {
			c := counts[l]
			total += c
			if c < minPerLink {
				minPerLink = c
			}
		}
		// BE slot payload: 1000-byte packets over the emulation MAC.
		bytesPerSlot, err := tdmaemu.BytesPerSlot(tdmaemu.Config{Guard: 100 * time.Microsecond}, cfg, 1000)
		if err != nil {
			return nil, err
		}
		capacity := schedule.ResidualCapacityBps(counts, cfg, bytesPerSlot)
		t.AddRow(calls, window, total, capacity/1e6, minPerLink)
	}
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
