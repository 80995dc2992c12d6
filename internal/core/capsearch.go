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

type probeTask struct {
	done chan struct{}
	out  probeOutcome
	err  error
}

// prober memoizes probe outcomes by call count and optionally runs probes on
// a bounded pool of goroutines. Each probe is an independent deterministic
// simulation (its own kernel and seed-derived RNG streams), so an outcome is
// a pure function of the call count: speculative probes and any worker count
// produce identical results, and only the outcomes the search consumes
// influence what it returns.
type prober struct {
	probe   func(k int, fs *topology.FlowSet) (probeOutcome, error)
	prepare func(k int) (*topology.FlowSet, error)
	workers int
	sem     chan struct{}
	memo    map[int]*probeTask

	// Observability (see instrument): per-verdict counters, the live search
	// bracket, and probe trace events labeled with the probe phase. All
	// handles are nil (no-op) on an uninstrumented prober; counter/trace
	// updates are atomic/locked, so worker goroutines report safely.
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
func (p *prober) observe(k int, t *probeTask) {
	if t.err != nil {
		return
	}
	p.obsProbes.Inc()
	pass := int64(0)
	if t.out.pass {
		pass = 1
		p.obsPass.Inc()
	} else {
		p.obsFail.Inc()
	}
	p.trace.Emit(obs.Event{Kind: obs.KindProbe, Node: -1, Link: -1, Slot: -1,
		Frame: -1, A: int64(k), B: pass, Label: p.label})
}

func newProber(probe func(int, *topology.FlowSet) (probeOutcome, error),
	prepare func(int) (*topology.FlowSet, error), workers int) *prober {
	if workers < 1 {
		workers = 1
	}
	p := &prober{probe: probe, prepare: prepare, workers: workers, memo: make(map[int]*probeTask)}
	if workers > 1 {
		p.sem = make(chan struct{}, workers)
	}
	return p
}

// start memoizes and begins the probe at k. Only the search goroutine calls
// it, so the memo map and the shared call sequence need no locking: prepare
// (which grows the sequence and materializes the k-call view) always runs
// here, before any worker goroutine touches the view — workers never read
// the growing sequence itself.
func (p *prober) start(k int) *probeTask {
	if t := p.memo[k]; t != nil {
		return t
	}
	t := &probeTask{done: make(chan struct{})}
	p.memo[k] = t
	fs, err := p.prepare(k)
	if err != nil {
		t.err = err
		close(t.done)
		return t
	}
	if p.workers <= 1 {
		t.out, t.err = p.probe(k, fs)
		p.observe(k, t)
		close(t.done)
		return t
	}
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		t.out, t.err = p.probe(k, fs)
		p.observe(k, t)
		close(t.done)
	}()
	return t
}

// get blocks until the probe at k has an outcome, starting it if needed.
func (p *prober) get(k int) (probeOutcome, error) {
	t := p.start(k)
	<-t.done
	return t.out, t.err
}

// speculate begins probes the search is likely to need, without waiting.
// Sequential probers ignore speculation: they only run probes whose outcome
// is consumed.
func (p *prober) speculate(ks ...int) {
	if p.workers <= 1 {
		return
	}
	for _, k := range ks {
		if k >= 1 {
			p.start(k)
		}
	}
}

// drain waits for every started probe, so no worker goroutine outlives the
// search (errors of unconsumed speculative probes are deliberately dropped:
// whether a speculation ran must not change the result).
func (p *prober) drain() {
	for _, t := range p.memo {
		<-t.done
	}
}

// gallopSearch brackets the admission capacity with an exponential gallop
// (1, 2, 4, ... capped at maxCalls) and then binary-searches the failing
// bracket. The final bracket edge is verified from actually probed outcomes
// — the returned capacity k passed and k+1 failed — and any bookkeeping
// inconsistency falls back to the exact linear walk, which reuses every
// memoized outcome. With workers available, the whole gallop ladder and the
// likely next binary midpoints are probed speculatively.
func gallopSearch(p *prober, maxCalls int) (*CapacityResult, error) {
	// Every return path waits for speculative probes: no worker goroutine
	// may outlive the search, even on error returns (drain is idempotent,
	// so the caller's own deferred drain stays harmless).
	defer p.drain()
	var ladder []int
	for k := 1; k < maxCalls; k *= 2 {
		ladder = append(ladder, k)
	}
	ladder = append(ladder, maxCalls)
	p.speculate(ladder...)

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
		// Speculate both possible next midpoints while mid runs.
		if m := lo + (mid-lo)/2; m > lo {
			p.speculate(m)
		}
		if m := mid + (hi-mid)/2; m > mid {
			p.speculate(m)
		}
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
	defer full.drain()
	guess, err := gallopSearch(screen, maxCalls)
	screen.drain()
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
		full.speculate(c + 1)
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
