package core

import (
	"time"

	"wimesh/internal/obs"
	"wimesh/internal/topology"
)

// probeOutcome is the verdict of probing one candidate call count.
type probeOutcome struct {
	pass bool
	stop StopReason // why the probe failed (StopSchedule or StopQuality)
	run  *RunResult // the measured run when pass
}

// prober memoizes probe outcomes by call count and probes on first use.
// Each probe is an independent deterministic simulation (its own kernel and
// seed-derived RNG streams), so an outcome is a pure function of the call
// count, and a fallback search reuses every outcome already probed.
type prober struct {
	probe   func(k int, fs *topology.FlowSet) (probeOutcome, error)
	prepare func(k int) (*topology.FlowSet, error)
	memo    map[int]probeOutcome

	// Observability (see instrument): per-verdict counters, the live search
	// bracket, and probe trace events labeled with the probe phase. All
	// handles are nil (no-op) on an uninstrumented prober.
	label       string
	obsProbes   *obs.Counter
	obsPass     *obs.Counter
	obsFail     *obs.Counter
	obsFallback *obs.Counter
	bracketLo   *obs.Gauge
	bracketHi   *obs.Gauge
	trace       *obs.Trace

	// Screen-only observability (instrumentScreen): whether the screen's
	// predicted bracket survived full-length verification, and the
	// screen-vs-simulation P95 delay residual when it did.
	obsBracketHit  *obs.Counter
	obsBracketMiss *obs.Counter
	residual       *obs.Histogram
}

// instrument attaches observability to the prober: label distinguishes the
// probe phase ("full" vs "analytic") in counter names and trace events.
func (p *prober) instrument(label string, reg *obs.Registry, tr *obs.Trace) {
	if reg == nil && tr == nil {
		return
	}
	p.label = label
	p.obsProbes = reg.Counter("core.probes." + label)
	p.obsPass = reg.Counter("core.probe_pass." + label)
	p.obsFail = reg.Counter("core.probe_fail." + label)
	p.obsFallback = reg.Counter("core.gallop_fallbacks")
	p.bracketLo = reg.Gauge("core.bracket_lo." + label)
	p.bracketHi = reg.Gauge("core.bracket_hi." + label)
	p.trace = tr
}

// instrumentScreen additionally attaches the screening-quality observables to
// a screen prober: core.screen_bracket_hit counts searches whose predicted
// bracket edge was confirmed by full-length simulation, core.screen_bracket_miss
// counts fallbacks to the full gallop, and core.screen_residual_ms records the
// predicted-minus-simulated worst P95 delay (milliseconds) of confirmed
// brackets.
func (p *prober) instrumentScreen(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.obsBracketHit = reg.Counter("core.screen_bracket_hit")
	p.obsBracketMiss = reg.Counter("core.screen_bracket_miss")
	p.residual = reg.Histogram("core.screen_residual_ms", -50, 50, 50)
}

// observeResidual records the screen's delay prediction error against the
// verifying full-length run at the same call count.
func (p *prober) observeResidual(pred, meas *RunResult) {
	if p.residual == nil || pred == nil || meas == nil {
		return
	}
	d := worstP95(pred) - worstP95(meas)
	p.residual.Observe(float64(d) / float64(time.Millisecond))
}

// observe records one finished probe verdict.
func (p *prober) observe(k int, out probeOutcome) {
	p.obsProbes.Inc()
	pass := int64(0)
	if out.pass {
		pass = 1
		p.obsPass.Inc()
	} else {
		p.obsFail.Inc()
	}
	p.trace.Emit(obs.Event{Kind: obs.KindProbe, Node: -1, Link: -1, Slot: -1,
		Frame: -1, A: int64(k), B: pass, Label: p.label})
}

func newProber(probe func(int, *topology.FlowSet) (probeOutcome, error),
	prepare func(int) (*topology.FlowSet, error)) *prober {
	return &prober{probe: probe, prepare: prepare, memo: make(map[int]probeOutcome)}
}

// get returns the outcome at k, probing it on first use. prepare grows the
// shared call sequence and materializes the k-call view the probe runs on.
func (p *prober) get(k int) (probeOutcome, error) {
	if out, ok := p.memo[k]; ok {
		return out, nil
	}
	fs, err := p.prepare(k)
	if err != nil {
		return probeOutcome{}, err
	}
	out, err := p.probe(k, fs)
	if err != nil {
		return probeOutcome{}, err
	}
	p.memo[k] = out
	p.observe(k, out)
	return out, nil
}

// gallopSearch brackets the admission capacity with an exponential gallop
// (1, 2, 4, ... capped at maxCalls) and then binary-searches the failing
// bracket. The final bracket edge is verified from actually probed outcomes
// — the returned capacity k passed and k+1 failed — and any bookkeeping
// inconsistency falls back to the exact linear walk, which reuses every
// memoized outcome.
func gallopSearch(p *prober, maxCalls int) (*CapacityResult, error) {
	var ladder []int
	for k := 1; k < maxCalls; k *= 2 {
		ladder = append(ladder, k)
	}
	ladder = append(ladder, maxCalls)

	lo, hi := 0, 0
	var loOut, hiOut probeOutcome
	for _, k := range ladder {
		out, err := p.get(k)
		if err != nil {
			return nil, err
		}
		if out.pass {
			lo, loOut = k, out
		} else {
			hi, hiOut = k, out
			break
		}
	}
	p.bracketLo.Set(int64(lo))
	p.bracketHi.Set(int64(hi))
	if hi == 0 {
		// Every ladder rung up to maxCalls passed.
		return &CapacityResult{Calls: maxCalls, StoppedBy: StopMaxCalls, LastGood: loOut.run}, nil
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		out, err := p.get(mid)
		if err != nil {
			return nil, err
		}
		if out.pass {
			lo, loOut = mid, out
		} else {
			hi, hiOut = mid, out
		}
		p.bracketLo.Set(int64(lo))
		p.bracketHi.Set(int64(hi))
	}
	if hi != lo+1 || hiOut.pass || (lo > 0 && !loOut.pass) {
		// Bracket-edge verification miss: fall back to the exact scan.
		p.obsFallback.Inc()
		return linearScan(p, maxCalls)
	}
	return &CapacityResult{Calls: lo, StoppedBy: hiOut.stop, LastGood: loOut.run}, nil
}

// screenedSearch first gallops over cheap screening probes — closed-form
// analytic predictions (internal/analytic) — to predict the capacity, then
// verifies the predicted bracket edge with full-length probes: the result is
// built exclusively from full-probe outcomes (prediction c needs just one
// passing full run at c and one failing at c+1), so the screen's accuracy
// only affects speed, never the result. A verification miss — the full-length verdict disagrees with the
// screen — falls back to the full gallop search, which reuses the memoized
// full-length outcomes already probed. Hits and misses are counted on the
// screen prober (instrumentScreen), and a confirmed bracket also records the
// predicted-vs-simulated delay residual.
func screenedSearch(full, screen *prober, maxCalls int) (*CapacityResult, error) {
	guess, err := gallopSearch(screen, maxCalls)
	if err != nil {
		// Screen failures are never fatal: if the error is real, the full
		// search will hit it itself.
		screen.obsBracketMiss.Inc()
		return gallopSearch(full, maxCalls)
	}
	switch c := guess.Calls; {
	case c >= maxCalls:
		out, err := full.get(maxCalls)
		if err != nil {
			return nil, err
		}
		if out.pass {
			screen.obsBracketHit.Inc()
			screen.observeResidual(guess.LastGood, out.run)
			return &CapacityResult{Calls: maxCalls, StoppedBy: StopMaxCalls, LastGood: out.run}, nil
		}
	case c == 0:
		out, err := full.get(1)
		if err != nil {
			return nil, err
		}
		if !out.pass {
			screen.obsBracketHit.Inc()
			return &CapacityResult{StoppedBy: out.stop}, nil
		}
	default:
		loOut, err := full.get(c)
		if err != nil {
			return nil, err
		}
		hiOut, err := full.get(c + 1)
		if err != nil {
			return nil, err
		}
		if loOut.pass && !hiOut.pass {
			screen.obsBracketHit.Inc()
			screen.observeResidual(guess.LastGood, loOut.run)
			return &CapacityResult{Calls: c, StoppedBy: hiOut.stop, LastGood: loOut.run}, nil
		}
	}
	screen.obsBracketMiss.Inc()
	return gallopSearch(full, maxCalls)
}

// linearScan is the reference search: probe k = 1, 2, 3, ... until the first
// failure. It consumes memoized outcomes where present, so the galloping
// fallback pays only for the probes not already run.
func linearScan(p *prober, maxCalls int) (*CapacityResult, error) {
	res := &CapacityResult{StoppedBy: StopMaxCalls}
	for k := 1; k <= maxCalls; k++ {
		out, err := p.get(k)
		if err != nil {
			return nil, err
		}
		if !out.pass {
			res.StoppedBy = out.stop
			return res, nil
		}
		res.Calls, res.LastGood = k, out.run
	}
	return res, nil
}
