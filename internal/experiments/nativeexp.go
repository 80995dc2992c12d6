package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/mac/wimax"
	"wimesh/internal/phy"
	"wimesh/internal/schedule"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// R14NativeVsEmulated runs the same schedule and saturating voice-packet
// workload over the WiFi-emulated data plane and the native 802.16 OFDM
// data plane, measuring delivered throughput — the end-to-end, simulated
// counterpart of the analytic overhead table R5.
func R14NativeVsEmulated() (*Table, error) {
	t := &Table{
		ID:     "R14",
		Header: []string{"data plane", "pkts/slot", "measured Mb/s", "frames lost"},
		Notes:  "4-chain, path-major schedule (1 slot/hop of 1 ms), saturated 200-byte packet flow over 3 hops, 4 s runs",
	}
	frame := tdma.FrameConfig{FrameDuration: 8 * time.Millisecond, DataSlots: 8}

	type plane struct {
		name string
		run  func(topo *topology.Network, sched *tdma.Schedule, path topology.Path) (pktsPerSlot int, mbps float64, lost uint64, err error)
	}
	planes := []plane{
		{"802.11b emu", func(topo *topology.Network, sched *tdma.Schedule, path topology.Path) (int, float64, uint64, error) {
			return runEmulated(tdmaemu.Config{QueueCap: 1 << 14}, topo, sched, path, frame)
		}},
		{"802.11b emu agg8", func(topo *topology.Network, sched *tdma.Schedule, path topology.Path) (int, float64, uint64, error) {
			return runEmulated(tdmaemu.Config{QueueCap: 1 << 14, AggregateLimit: 8}, topo, sched, path, frame)
		}},
		{"802.16 QPSK-3/4", func(topo *topology.Network, sched *tdma.Schedule, path topology.Path) (int, float64, uint64, error) {
			return runNative(wimax.Config{QueueCap: 1 << 14}, topo, sched, path, frame)
		}},
		{"802.16 64QAM-3/4", func(topo *topology.Network, sched *tdma.Schedule, path topology.Path) (int, float64, uint64, error) {
			return runNative(wimax.Config{QueueCap: 1 << 14, Modulation: phy.QAM64x34}, topo, sched, path, frame)
		}},
	}
	// One independent 4 s simulation per data plane; each point builds its
	// own topology and schedule.
	type point struct {
		pktsPerSlot int
		mbps        float64
		lost        uint64
	}
	points := make([]point, len(planes))
	if err := forEach(len(planes), func(i int) error {
		topo, sched, path, err := r14Setup(frame)
		if err != nil {
			return err
		}
		p := &points[i]
		p.pktsPerSlot, p.mbps, p.lost, err = planes[i].run(topo, sched, path)
		if err != nil {
			return fmt.Errorf("R14 %s: %w", planes[i].name, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, pl := range planes {
		t.AddRow(pl.name, points[i].pktsPerSlot, fmt.Sprintf("%.2f", points[i].mbps), points[i].lost)
	}
	return t, nil
}

func r14Setup(frame tdma.FrameConfig) (*topology.Network, *tdma.Schedule, topology.Path, error) {
	topo, err := topology.Chain(4, 100)
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		return nil, nil, nil, err
	}
	path, err := topo.ShortestPath(3, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	demand := make(map[topology.LinkID]int, len(path))
	for _, l := range path {
		demand[l] = 1
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: frame.DataSlots,
		Flows: []schedule.FlowRequirement{{Path: path}}}
	sched, err := schedule.OrderToSchedule(p, schedule.PathMajorOrder(p), frame.DataSlots, frame)
	if err != nil {
		return nil, nil, nil, err
	}
	return topo, sched, path, nil
}

const (
	r14Duration = 4 * time.Second
	r14PktBytes = 200
)

func runEmulated(cfg tdmaemu.Config, topo *topology.Network, sched *tdma.Schedule, path topology.Path, frame tdma.FrameConfig) (int, float64, uint64, error) {
	kernel := sim.NewKernel()
	var bits float64
	nw, err := tdmaemu.New(cfg, topo, kernel, sched, nil, 250,
		func(p *tdmaemu.Packet, _ time.Duration) { bits += float64(8 * p.Bytes) })
	if err != nil {
		return 0, 0, 0, err
	}
	if err := nw.Start(); err != nil {
		return 0, 0, 0, err
	}
	pps, err := tdmaemu.PacketsPerSlot(cfg, frame, r14PktBytes)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := saturate(kernel, func(seq int) error {
		return nw.Inject(&tdmaemu.Packet{Seq: seq, Path: path, Bytes: r14PktBytes})
	}, frame); err != nil {
		return 0, 0, 0, err
	}
	kernel.RunUntil(r14Duration)
	st := nw.Stats()
	return pps, bits / r14Duration.Seconds() / 1e6, st.Violations + st.FailureDrops, nil
}

func runNative(cfg wimax.Config, topo *topology.Network, sched *tdma.Schedule, path topology.Path, frame tdma.FrameConfig) (int, float64, uint64, error) {
	kernel := sim.NewKernel()
	var bits float64
	nw, err := wimax.New(cfg, topo, kernel, sched, 250,
		func(p *wimax.Packet, _ time.Duration) { bits += float64(8 * p.Bytes) })
	if err != nil {
		return 0, 0, 0, err
	}
	if err := nw.Start(); err != nil {
		return 0, 0, 0, err
	}
	capBytes, err := wimax.SlotCapacityBytes(cfg, frame, r14PktBytes)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := saturate(kernel, func(seq int) error {
		return nw.Inject(&wimax.Packet{Seq: seq, Path: path, Bytes: r14PktBytes})
	}, frame); err != nil {
		return 0, 0, 0, err
	}
	kernel.RunUntil(r14Duration)
	return capBytes / r14PktBytes, bits / r14Duration.Seconds() / 1e6, nw.Stats().Violations, nil
}

// saturate injects a burst of packets every frame so the source queue never
// drains.
func saturate(kernel *sim.Kernel, inject func(seq int) error, frame tdma.FrameConfig) error {
	frames := int(r14Duration / frame.FrameDuration)
	seq := 0
	for j := 0; j < frames; j++ {
		j := j
		base := seq
		if _, err := kernel.At(time.Duration(j)*frame.FrameDuration, func() {
			for b := 0; b < 32; b++ {
				_ = inject(base + b)
			}
		}); err != nil {
			return err
		}
		seq += 32
	}
	return nil
}
