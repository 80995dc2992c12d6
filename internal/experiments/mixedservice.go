package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/schedule"
	"wimesh/internal/sim"
	"wimesh/internal/stats"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// R13MixedService runs voice and saturating best-effort traffic through the
// same emulated TDMA data plane: the QoS schedule carries the voice demand,
// FillResidual hands every leftover slot to best-effort, and the link
// queues serve voice with strict priority. The ablation disables the
// priority (best-effort marked as voice class): voice then queues behind
// bulk and its delay and E-model score collapse.
func R13MixedService() (*Table, error) {
	t := &Table{
		ID:     "R13",
		Header: []string{"scenario", "voice R", "voice p95", "voice loss%", "BE Mb/s"},
		Notes:  "4-chain, 1 voice call over 3 hops + saturating 700-byte best-effort on the first hop, 8 s runs",
	}
	type scenario struct {
		name    string
		beFlood bool
		// markBE controls whether flood packets carry the best-effort class
		// mark the priority queues act on. True is the normal serving path
		// (the "BE flood, priority" row); false is the ablation (the "BE
		// flood, no priority" row), where unmarked bulk competes as voice.
		markBE bool
	}
	for _, sc := range []scenario{
		{"voice only", false, true},
		{"BE flood, priority", true, true},
		{"BE flood, no priority", true, false},
	} {
		r, p95, loss, beMbps, err := mixedRun(sc.beFlood, sc.markBE)
		if err != nil {
			return nil, fmt.Errorf("R13 %s: %w", sc.name, err)
		}
		t.AddRow(sc.name, fmt.Sprintf("%.1f", r), p95.Round(100*time.Microsecond).String(),
			fmt.Sprintf("%.1f", loss*100), fmt.Sprintf("%.2f", beMbps))
	}
	return t, nil
}

func mixedRun(beFlood, markBE bool) (rFactor float64, p95 time.Duration, loss float64, beMbps float64, err error) {
	frame := emuFrame(16)
	topo, err := topology.Chain(4, 100)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// Voice path: node 3 to gateway 0, one slot per hop.
	path, err := topo.ShortestPath(3, 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	demand := make(map[topology.LinkID]int, len(path))
	for _, l := range path {
		demand[l] = 1
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: frame.DataSlots,
		Flows: []schedule.FlowRequirement{{Path: path}}}
	qos, err := schedule.OrderToSchedule(p, schedule.PathMajorOrder(p), frame.DataSlots, frame)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// Best-effort rides the residual slots of the voice links.
	full, _, err := schedule.FillResidual(p, qos, path)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	kernel := sim.NewKernel()
	codec := voip.G711()
	var (
		voiceDelays stats.Sample
		voiceSent   int
		beBits      float64
	)
	const duration = 8 * time.Second
	nw, err := tdmaemu.New(tdmaemu.Config{QueueCap: 128}, topo, kernel, full, nil, 250,
		func(pkt *tdmaemu.Packet, at time.Duration) {
			if pkt.FlowID == 0 {
				voiceDelays.AddDuration(at - pkt.Created)
			} else {
				beBits += float64(8 * pkt.Bytes)
			}
		})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := nw.Start(); err != nil {
		return 0, 0, 0, 0, err
	}
	src, err := voip.NewSource(codec, voip.ModeCBR, func(vp voip.Packet) {
		voiceSent++
		_ = nw.Inject(&tdmaemu.Packet{FlowID: 0, Seq: vp.Seq, Path: path, Bytes: vp.Bytes})
	}, nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := src.Start(kernel, 0); err != nil {
		return 0, 0, 0, 0, err
	}
	if beFlood {
		// Four 700-byte background packets per frame on the first hop.
		frames := int(duration / frame.FrameDuration)
		for j := 0; j < frames; j++ {
			j := j
			if _, err := kernel.At(time.Duration(j)*frame.FrameDuration, func() {
				for b := 0; b < 4; b++ {
					_ = nw.Inject(&tdmaemu.Packet{
						FlowID: 1, Seq: j*4 + b,
						Path:       topology.Path{path[0]},
						Bytes:      700,
						BestEffort: markBE, // false = ablation: unmarked BE competes as voice
					})
				}
			}); err != nil {
				return 0, 0, 0, 0, err
			}
		}
	}
	kernel.RunUntil(duration)
	src.Stop()

	if voiceDelays.Len() == 0 {
		return 0, 0, 1, 0, nil
	}
	loss = 1 - float64(voiceDelays.Len())/float64(voiceSent)
	if loss < 0 {
		loss = 0
	}
	q, _, err := voip.EvaluateWithPlayout(codec, voiceDelays.Durations(), loss, 0.01)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	p95f, err := voiceDelays.Quantile(0.95)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return q.R, time.Duration(p95f * float64(time.Second)), loss, beBits / duration.Seconds() / 1e6, nil
}
