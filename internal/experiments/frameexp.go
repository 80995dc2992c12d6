package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// R17FrameDuration sweeps the TDMA frame length: short frames serve packets
// sooner (lower delay) but pay the per-slot guard and preamble overheads
// more often (fewer voice packets per slot, lower capacity); long frames
// amortize overheads but add queueing delay — the frame-sizing trade-off of
// every 802.16 mesh deployment.
func R17FrameDuration() (*Table, error) {
	t := &Table{
		ID:     "R17",
		Header: []string{"frame", "slot", "pkts/slot", "capacity calls", "worst p95", "min R"},
		Notes:  "6-node chain, 16 slots/frame, G.711 calls to the gateway; capacity = max calls at toll quality (path-major planner)",
	}
	frameDurs := []time.Duration{8 * time.Millisecond, 16 * time.Millisecond,
		32 * time.Millisecond, 64 * time.Millisecond}
	// One independent capacity search per frame duration.
	type point struct {
		pps    int
		capRes *core.CapacityResult
	}
	points := make([]point, len(frameDurs))
	if err := forEach(len(frameDurs), func(i int) error {
		frame := tdma.FrameConfig{FrameDuration: frameDurs[i], DataSlots: 16}
		topo, err := topology.Chain(6, 100)
		if err != nil {
			return err
		}
		sys, err := core.NewSystem(topo, core.WithFrame(frame))
		if err != nil {
			return err
		}
		pps, err := sys.BytesPerSlot(voip.G711().PacketBytes())
		if err != nil {
			return err
		}
		points[i].pps = pps / voip.G711().PacketBytes()
		points[i].capRes, err = sys.VoIPCapacityTDMA(core.CapacityConfig{
			MaxCalls: 40,
			Run:      core.RunConfig{Duration: 3 * time.Second, Seed: 61},
		})
		return err
	}); err != nil {
		return nil, err
	}
	for i, frameDur := range frameDurs {
		frame := tdma.FrameConfig{FrameDuration: frameDur, DataSlots: 16}
		capRes := points[i].capRes
		worstP95 := time.Duration(0)
		minR := 0.0
		if capRes.LastGood != nil {
			minR = capRes.LastGood.MinR
			for _, f := range capRes.LastGood.Flows {
				if f.P95Delay > worstP95 {
					worstP95 = f.P95Delay
				}
			}
		}
		t.AddRow(frameDur.String(), frame.SlotDuration().Round(time.Microsecond).String(),
			points[i].pps, capRes.Calls, worstP95.Round(100*time.Microsecond).String(),
			fmt.Sprintf("%.1f", minR))
	}
	return t, nil
}
