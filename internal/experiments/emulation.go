package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/phy"
	"wimesh/internal/schedule"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/timesync"
	"wimesh/internal/topology"
)

// R5EmulationOverhead reproduces the emulation-overhead analysis: what
// fraction of a TDMA slot carries payload when the slot is emulated over
// 802.11b (preamble + PLCP + MAC framing + guard per packet) versus carried
// natively by the 802.16 OFDM PHY (one preamble symbol per burst).
func R5EmulationOverhead() (*Table, error) {
	t := &Table{
		ID: "R5",
		Header: []string{"slot", "voice g=0", "voice g=100us", "voice g=200us",
			"voice agg8", "1500B g=100us", "native 802.16"},
		Notes: "emu at 11 Mb/s: 'voice' = 200-byte G.711 packets, 'agg8' = 8-packet aggregation at g=100us, '1500B' = full MTU; native: QPSK-3/4 burst filling the slot, 1 preamble symbol",
	}
	wimax := phy.DefaultWiMAXPHY()
	symbol, err := wimax.SymbolTime()
	if err != nil {
		return nil, err
	}
	for _, slotMs := range []float64{0.5, 1, 2, 4} {
		slot := time.Duration(slotMs * float64(time.Millisecond))
		frame := tdma.FrameConfig{FrameDuration: 16 * slot, DataSlots: 16}
		row := []any{slot.String()}
		for _, guard := range []time.Duration{0, 100 * time.Microsecond, 200 * time.Microsecond} {
			// GuardSet makes the g=0 column a true zero-guard config instead
			// of silently inheriting the 100 us default.
			eff, err := tdmaemu.SlotEfficiency(tdmaemu.Config{Guard: guard, GuardSet: true}, frame, 200)
			if err != nil {
				return nil, err
			}
			row = append(row, eff)
		}
		aggEff, err := tdmaemu.SlotEfficiency(tdmaemu.Config{
			Guard:          100 * time.Microsecond,
			AggregateLimit: 8,
		}, frame, 200)
		if err != nil {
			return nil, err
		}
		row = append(row, aggEff)
		mtuEff, err := tdmaemu.SlotEfficiency(tdmaemu.Config{Guard: 100 * time.Microsecond}, frame, 1500)
		if err != nil {
			return nil, err
		}
		row = append(row, mtuEff)
		// Native: symbols per slot, one lost to the burst preamble.
		symbols := int(slot / symbol)
		native := 0.0
		if symbols > 1 {
			native = float64(symbols-1) / float64(symbols)
		}
		row = append(row, native)
		t.AddRow(row...)
	}
	return t, nil
}

// R6SyncTolerance reproduces the synchronization-tolerance experiment:
// schedule-violation rate (collided receptions / transmissions) as the
// per-hop clock error grows, for several guard intervals, on a 4-node chain
// with a conflict-free path-major schedule and slots nearly filled by
// packets.
func R6SyncTolerance() (*Table, error) {
	t := &Table{
		ID:     "R6",
		Header: []string{"sync err", "g=25us", "g=100us", "g=250us"},
		Notes:  "4-node chain, 8x1 ms slots, packets sized to fill the usable window, resync every frame, 250 frames; cell = violations/transmissions",
	}
	errStds := []time.Duration{0, 25 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 200 * time.Microsecond}
	guards := []time.Duration{25 * time.Microsecond, 100 * time.Microsecond,
		250 * time.Microsecond}
	// Each (sync error, guard) cell is an independent 250-frame simulation.
	rates := make([]float64, len(errStds)*len(guards))
	if err := forEach(len(rates), func(i int) error {
		var err error
		rates[i], err = violationRate(errStds[i/len(guards)], guards[i%len(guards)], 31)
		return err
	}); err != nil {
		return nil, err
	}
	for e, errStd := range errStds {
		row := []any{errStd.String()}
		for g := range guards {
			row = append(row, fmt.Sprintf("%.3f", rates[e*len(guards)+g]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// violationRate runs the emulation on a 4-node chain for 250 frames and
// returns violations per transmission.
func violationRate(perHopErr, guard time.Duration, seed int64) (float64, error) {
	frame := tdma.FrameConfig{FrameDuration: 8 * time.Millisecond, DataSlots: 8}
	topo, err := topology.Chain(4, 100)
	if err != nil {
		return 0, err
	}
	g, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		return 0, err
	}
	demand := make(map[topology.LinkID]int)
	var path topology.Path
	for i := 0; i < 3; i++ {
		l, err := topo.FindLink(topology.NodeID(i), topology.NodeID(i+1))
		if err != nil {
			return 0, err
		}
		demand[l] = 1
		path = append(path, l)
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: frame.DataSlots,
		Flows: []schedule.FlowRequirement{{Path: path}}}
	sched, err := schedule.OrderToSchedule(p, schedule.PathMajorOrder(p), frame.DataSlots, frame)
	if err != nil {
		return 0, err
	}
	kernel := sim.NewKernel()
	var ts *timesync.Sync
	if perHopErr > 0 {
		rt, err := topo.BuildRoutingTree()
		if err != nil {
			return 0, err
		}
		ts, err = timesync.New(timesync.Config{
			PerHopError:    perHopErr,
			ResyncInterval: frame.FrameDuration,
		}, rt.Depth, seed)
		if err != nil {
			return 0, err
		}
		if _, err := ts.Start(kernel); err != nil {
			return 0, err
		}
	}
	nw, err := tdmaemu.New(tdmaemu.Config{Guard: guard, QueueCap: 4096}, topo, kernel, sched, ts, 250, nil)
	if err != nil {
		return 0, err
	}
	if err := nw.Start(); err != nil {
		return 0, err
	}
	// Size packets so one fills the usable window (slot minus guard) almost
	// exactly: the guard is then the only protection between adjacent
	// slots, which is the quantity under test.
	bytes := fillBytes(frame.SlotDuration(), guard)
	const frames = 250
	for j := 0; j < frames; j++ {
		j := j
		if _, err := kernel.At(time.Duration(j)*frame.FrameDuration, func() {
			for _, l := range path {
				_ = nw.Inject(&tdmaemu.Packet{Seq: j, Path: topology.Path{l}, Bytes: bytes})
			}
		}); err != nil {
			return 0, err
		}
	}
	kernel.RunUntil((frames + 3) * frame.FrameDuration)
	st := nw.Stats()
	if st.Transmissions == 0 {
		return 0, fmt.Errorf("no transmissions (guard %v)", guard)
	}
	return float64(st.Violations) / float64(st.Transmissions), nil
}

// fillBytes returns the largest IP packet whose 802.11b airtime fits the
// usable window (slot minus guard) at 11 Mb/s, leaving a 5 us margin.
func fillBytes(slot, guard time.Duration) int {
	p := phy.IEEE80211b()
	usable := slot - guard - 5*time.Microsecond
	payloadAir := usable - p.PreambleHeader
	if payloadAir <= 0 {
		return 1
	}
	frameBytes := int(payloadAir.Seconds() * 11e6 / 8)
	bytes := frameBytes - phy.MACHeaderBytes - phy.SNAPLLCBytes
	if bytes < 1 {
		return 1
	}
	return bytes
}
