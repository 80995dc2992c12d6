package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"wimesh/internal/mac/dcf"
	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/obs"
	"wimesh/internal/sim"
	"wimesh/internal/timesync"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// RunConfig parameterizes one simulation run.
type RunConfig struct {
	// Duration is the simulated time (default 10 s).
	Duration time.Duration
	// Codec is the voice codec (default G.711).
	Codec voip.Codec
	// Mode selects CBR or talk-spurt sources (default CBR).
	Mode voip.SourceMode
	// Seed drives all randomness.
	Seed int64
	// Sync enables the clock model for TDMA emulation (nil = ideal
	// clocks). Ignored by DCF.
	Sync *timesync.Config
	// WarmUp excludes initial packets from the measurements (default
	// Duration/10).
	WarmUp time.Duration
	// QueueCap overrides the finite per-link MAC queue depth in packets
	// for both MACs (0 = the MAC's own default, 64). The analytic screen
	// models the same bound, so predictions and simulations agree on when
	// tail drops start.
	QueueCap int
	// AbortOnProvableFailure arms the quality monitor: the run terminates
	// as soon as some flow provably cannot recover toll quality (see
	// qualityMonitor). An aborted run reports Aborted with AllAcceptable
	// false and no per-flow results; the pass/fail verdict is identical to
	// the full-length run's, which is what capacity searches consume.
	AbortOnProvableFailure bool
}

// prepare is the prologue RunTDMA and RunDCF share: it rejects an empty flow
// set and the config values no run can honour (zero means "the default"),
// then fills the defaults in.
func (c *RunConfig) prepare(fs *topology.FlowSet) error {
	if fs == nil || len(fs.Flows) == 0 {
		return errors.New("core: no flows")
	}
	if c.Duration < 0 {
		return fmt.Errorf("core: negative RunConfig.Duration %v", c.Duration)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("core: negative RunConfig.QueueCap %d", c.QueueCap)
	}
	c.applyDefaults()
	return nil
}

func (c *RunConfig) applyDefaults() {
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Codec.Name == "" {
		c.Codec = voip.G711()
	}
	if c.Mode == 0 {
		c.Mode = voip.ModeCBR
	}
	if c.WarmUp == 0 {
		c.WarmUp = c.Duration / 10
	}
}

// FlowResult is the measured performance of one flow.
type FlowResult struct {
	FlowID topology.FlowID
	// Sent and Received count measured packets (inside the measurement
	// window).
	Sent, Received int
	// Loss is the fraction of measured packets not delivered.
	Loss float64
	// MeanDelay, P95Delay and MaxDelay summarize network delay.
	MeanDelay, P95Delay, MaxDelay time.Duration
	// JitterBuffer is the planned playout buffer: the smallest depth
	// keeping late loss at or below 1%.
	JitterBuffer time.Duration
	// LateLoss is the fraction of delivered packets missing the playout
	// instant (part of the loss fed to the E-model).
	LateLoss float64
	// MouthToEar is the E-model delay input: playout buffer plus
	// packetization and codec lookahead.
	MouthToEar time.Duration
	// Quality is the E-model score.
	Quality voip.Quality
}

// RunResult aggregates one simulation run.
type RunResult struct {
	Flows []FlowResult
	// MinR is the worst flow R-factor.
	MinR float64
	// AllAcceptable reports that every flow kept toll quality.
	AllAcceptable bool
	// Aborted reports that the quality monitor stopped the run early at
	// AbortedAt: some flow provably could not recover toll quality, so the
	// verdict is a quality failure (AllAcceptable false) and no per-flow
	// measurements are assembled.
	Aborted   bool
	AbortedAt time.Duration
	// TDMA and DCF hold the MAC counters of whichever MAC ran.
	TDMA *tdmaemu.Stats
	DCF  *dcf.Stats
}

// measurementWindow returns [lo, hi) of packet-creation times that count.
func measurementWindow(cfg RunConfig, frame time.Duration) (time.Duration, time.Duration) {
	drain := 10 * frame
	if drain < 200*time.Millisecond {
		drain = 200 * time.Millisecond
	}
	hi := cfg.Duration - drain
	if hi <= cfg.WarmUp {
		hi = cfg.Duration // degenerate short runs: measure everything
		return cfg.WarmUp / 2, hi
	}
	return cfg.WarmUp, hi
}

// abortChecks is how many times the quality monitor evaluates during a
// monitored run.
const abortChecks = 16

// runKernel drives the kernel to duration. With a monitor it pauses at
// evenly spaced checkpoints; chunked RunUntil calls follow exactly the same
// event trajectory as a single call, so an unaborted monitored run is
// bit-identical to an unmonitored one.
func runKernel(kernel *sim.Kernel, duration time.Duration, mon *qualityMonitor) (bool, time.Duration) {
	if mon == nil {
		kernel.RunUntil(duration)
		return false, 0
	}
	if step := (duration - mon.lo) / (abortChecks + 1); step > 0 {
		for t := mon.lo + step; t < duration; t += step {
			kernel.RunUntil(t)
			if mon.shouldAbort(kernel.Now()) {
				return true, kernel.Now()
			}
		}
	}
	kernel.RunUntil(duration)
	return false, 0
}

// RunTDMA simulates the flow set over the TDMA-over-WiFi emulation using the
// plan's schedule.
func (s *System) RunTDMA(plan *Plan, fs *topology.FlowSet, cfg RunConfig) (*RunResult, error) {
	if plan == nil || plan.Schedule == nil {
		return nil, errors.New("core: nil plan")
	}
	if err := cfg.prepare(fs); err != nil {
		return nil, err
	}
	kernel := sim.NewKernel()

	var ts *timesync.Sync
	if cfg.Sync != nil {
		rt, err := s.Topo.BuildRoutingTree()
		if err != nil {
			return nil, fmt.Errorf("core: sync needs a gateway: %w", err)
		}
		ts, err = timesync.New(*cfg.Sync, rt.Depth, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if _, err := ts.Start(kernel); err != nil {
			return nil, err
		}
	}

	lo, hi := measurementWindow(cfg, s.Frame.FrameDuration)
	cs := acquireCollectors(fs, cfg.AbortOnProvableFailure)
	defer cs.release()
	var mon *qualityMonitor
	if cfg.AbortOnProvableFailure {
		mon = newQualityMonitor(cfg.Codec, lo, hi, fs.Flows, cs)
	}
	macCfg := s.MAC
	if cfg.QueueCap > 0 {
		macCfg.QueueCap = cfg.QueueCap
	}
	// Delivered packets are recycled into a pool (the MAC hands over
	// ownership at the callback); only packets the MAC drops are garbage.
	var pktPool []*tdmaemu.Packet
	nw, err := tdmaemu.New(macCfg, s.Topo, kernel, plan.Schedule, ts, s.InterferenceRange,
		func(p *tdmaemu.Packet, at time.Duration) {
			if p.Created >= lo && p.Created < hi {
				cs.observeDelivery(p.FlowID, p.Seq, at-p.Created)
			}
			pktPool = append(pktPool, p)
		})
	if err != nil {
		return nil, err
	}
	if err := nw.Start(); err != nil {
		return nil, err
	}

	sources, err := startSources(kernel, fs, cfg, func(f topology.Flow, pkt voip.Packet) {
		if pkt.Sent >= lo && pkt.Sent < hi {
			cs.observeSend(int(f.ID), pkt.Seq, pkt.Sent)
		}
		var p *tdmaemu.Packet
		if n := len(pktPool); n > 0 {
			p = pktPool[n-1]
			pktPool = pktPool[:n-1]
		} else {
			p = &tdmaemu.Packet{}
		}
		*p = tdmaemu.Packet{FlowID: int(f.ID), Seq: pkt.Seq, Path: f.Path, Bytes: pkt.Bytes}
		if err := nw.Inject(p); err != nil {
			// Injection only fails for malformed packets; surface loudly in
			// measurements by counting nothing.
			return
		}
	})
	if err != nil {
		return nil, err
	}
	aborted, at := runKernel(kernel, cfg.Duration, mon)
	for _, src := range sources {
		src.Stop()
	}
	st := nw.Stats()
	if aborted {
		observeAbort(at)
		return &RunResult{Aborted: true, AbortedAt: at, TDMA: &st}, nil
	}
	res, err := assemble(fs, cs, cfg)
	if err != nil {
		return nil, err
	}
	res.TDMA = &st
	return res, nil
}

// RunDCF simulates the flow set over plain 802.11 DCF (no schedule).
func (s *System) RunDCF(fs *topology.FlowSet, cfg RunConfig) (*RunResult, error) {
	if err := cfg.prepare(fs); err != nil {
		return nil, err
	}
	kernel := sim.NewKernel()

	lo, hi := measurementWindow(cfg, s.Frame.FrameDuration)
	cs := acquireCollectors(fs, cfg.AbortOnProvableFailure)
	defer cs.release()
	var mon *qualityMonitor
	if cfg.AbortOnProvableFailure {
		mon = newQualityMonitor(cfg.Codec, lo, hi, fs.Flows, cs)
	}
	// Dense per-flow routes (FlowIDs are assigned positionally).
	routes := make([][]topology.NodeID, len(cs.cols))
	for _, f := range fs.Flows {
		nodes, err := s.Topo.PathNodes(f.Path)
		if err != nil {
			return nil, fmt.Errorf("core: flow %d: %w", f.ID, err)
		}
		routes[int(f.ID)] = nodes
	}
	// The DCF baseline reuses the emulation's PHY and rate; zero values let
	// dcf apply the same 802.11b/11 Mb/s defaults.
	dcfCfg := dcf.Config{
		PHY:         s.MAC.PHY,
		DataRateBps: s.MAC.DataRateBps,
		QueueCap:    cfg.QueueCap,
		Seed:        cfg.Seed,
	}
	var pktPool []*dcf.Packet
	nw, err := dcf.New(dcfCfg, s.Topo, kernel, s.InterferenceRange,
		func(p *dcf.Packet, at time.Duration) {
			if p.Created >= lo && p.Created < hi {
				cs.observeDelivery(p.FlowID, p.Seq, at-p.Created)
			}
			pktPool = append(pktPool, p)
		})
	if err != nil {
		return nil, err
	}

	sources, err := startSources(kernel, fs, cfg, func(f topology.Flow, pkt voip.Packet) {
		if pkt.Sent >= lo && pkt.Sent < hi {
			cs.observeSend(int(f.ID), pkt.Seq, pkt.Sent)
		}
		var p *dcf.Packet
		if n := len(pktPool); n > 0 {
			p = pktPool[n-1]
			pktPool = pktPool[:n-1]
		} else {
			p = &dcf.Packet{}
		}
		*p = dcf.Packet{FlowID: int(f.ID), Seq: pkt.Seq, Route: routes[int(f.ID)], Bytes: pkt.Bytes}
		if err := nw.Inject(p); err != nil {
			return
		}
	})
	if err != nil {
		return nil, err
	}
	aborted, at := runKernel(kernel, cfg.Duration, mon)
	for _, src := range sources {
		src.Stop()
	}
	st := nw.Stats()
	if aborted {
		observeAbort(at)
		return &RunResult{Aborted: true, AbortedAt: at, DCF: &st}, nil
	}
	res, err := assemble(fs, cs, cfg)
	if err != nil {
		return nil, err
	}
	res.DCF = &st
	return res, nil
}

// observeAbort records a quality-monitor abort.
func observeAbort(at time.Duration) {
	obs.Default().Counter("core.monitor_aborts").Inc()
	obs.DefaultTrace().Emit(obs.Event{T: at, Kind: obs.KindAbort,
		Node: -1, Link: -1, Slot: -1, Frame: -1})
}

// startSources creates and starts one voice source per flow, staggered by a
// fraction of the packet interval.
func startSources(kernel *sim.Kernel, fs *topology.FlowSet, cfg RunConfig,
	inject func(topology.Flow, voip.Packet)) ([]*voip.Source, error) {
	sources := make([]*voip.Source, 0, len(fs.Flows))
	for i, f := range fs.Flows {
		f := f
		// CBR sources never draw from their rng; skip seeding it. The
		// talk-spurt stream derivation (seed, i+5000) is unchanged.
		var rng *rand.Rand
		if cfg.Mode == voip.ModeTalkSpurt {
			rng = sim.NewRNG(cfg.Seed, int64(i)+5000)
		}
		src, err := voip.NewSource(cfg.Codec, cfg.Mode, func(pkt voip.Packet) {
			inject(f, pkt)
		}, rng)
		if err != nil {
			return nil, err
		}
		offset := cfg.Codec.PacketInterval * time.Duration(i) / time.Duration(len(fs.Flows)+1)
		if err := src.Start(kernel, offset); err != nil {
			return nil, err
		}
		sources = append(sources, src)
	}
	return sources, nil
}

// assemble turns the collected measurements into a RunResult with E-model
// scores. Mean is computed before the first order query (which sorts the
// sample in place) so the float summation order matches insertion order; the
// playout evaluation then reuses the sorted backing without copying.
func assemble(fs *topology.FlowSet, cs *collectorSet, cfg RunConfig) (*RunResult, error) {
	res := &RunResult{MinR: 100, AllAcceptable: true}
	for _, f := range fs.Flows {
		pr := &cs.cols[int(f.ID)]
		fr := FlowResult{FlowID: f.ID, Sent: pr.sent, Received: pr.received}
		if pr.sent > 0 {
			fr.Loss = 1 - float64(pr.received)/float64(pr.sent)
			if fr.Loss < 0 {
				fr.Loss = 0 // duplicates cannot happen; guard rounding
			}
		}
		if pr.delays.Len() > 0 {
			mean, err := pr.delays.Mean()
			if err != nil {
				return nil, err
			}
			p95, err := pr.delays.Quantile(0.95)
			if err != nil {
				return nil, err
			}
			maxV, err := pr.delays.Max()
			if err != nil {
				return nil, err
			}
			fr.MeanDelay = time.Duration(mean * float64(time.Second))
			fr.P95Delay = time.Duration(p95 * float64(time.Second))
			fr.MaxDelay = time.Duration(maxV * float64(time.Second))
			// Receiver-side playout: smallest jitter buffer keeping late
			// loss <= 1%; late losses add to the network loss. The
			// seconds-to-duration conversion is monotone, so converting the
			// sorted floats yields the same ascending durations the old
			// copy-and-sort path produced.
			// SortedView is a zero-copy view; it is safe because the floats
			// are consumed into durs before the next observation.
			durs := cs.durs[:0]
			for _, x := range pr.delays.SortedView() {
				durs = append(durs, time.Duration(x*float64(time.Second)))
			}
			cs.durs = durs
			q, po, err := voip.EvaluateWithPlayoutSorted(cfg.Codec, durs, fr.Loss, playoutLateTarget)
			if err != nil {
				return nil, err
			}
			fr.JitterBuffer = po.Buffer
			fr.LateLoss = po.LateLoss
			fr.MouthToEar = voip.EndToEndDelay(cfg.Codec, po.Buffer, 0)
			fr.Quality = q
		} else {
			fr.Quality = voip.Quality{R: 0, MOS: 1}
		}
		if fr.Quality.R < res.MinR {
			res.MinR = fr.Quality.R
		}
		if !fr.Quality.Acceptable() {
			res.AllAcceptable = false
		}
		res.Flows = append(res.Flows, fr)
	}
	return res, nil
}
