package core

import (
	"errors"
	"fmt"
	"time"

	"wimesh/internal/obs"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// CapacityConfig parameterizes the call-capacity search of experiment R3:
// calls are added one at a time until the network can no longer serve all of
// them at toll quality.
type CapacityConfig struct {
	// MaxCalls caps the search (default 60).
	MaxCalls int
	// Method is the TDMA planner (default MethodPathMajor; MethodILP is
	// exact but slow beyond small meshes).
	Method PlanMethod
	// Run configures each simulation run.
	Run RunConfig
	// DelayBound is each call's end-to-end delay budget (default 150 ms).
	DelayBound time.Duration
	// Downlink adds a gateway->node flow per call in addition to the
	// node->gateway uplink (a full duplex call).
	Downlink bool
	// Workers is ignored: probes run one at a time, and the analytic
	// screen leaves two full simulations per search. It stays because the
	// benchmark module still sets it.
	Workers int
}

func (c *CapacityConfig) applyDefaults() {
	if c.MaxCalls == 0 {
		c.MaxCalls = 60
	}
	if c.Method == 0 {
		c.Method = MethodPathMajor
	}
	if c.DelayBound == 0 {
		c.DelayBound = 150 * time.Millisecond
	}
	c.Run.applyDefaults()
}

// StopReason reports what ended a capacity search.
type StopReason string

// Stop reasons.
const (
	// StopSchedule: no feasible schedule for one more call.
	StopSchedule StopReason = "schedule-infeasible"
	// StopQuality: one more call pushed a flow below toll quality.
	StopQuality StopReason = "quality"
	// StopMaxCalls: the search cap was reached while still acceptable.
	StopMaxCalls StopReason = "max-calls"
)

// CapacityResult is the outcome of a capacity search.
type CapacityResult struct {
	// Calls is the largest number of calls served at toll quality.
	Calls int
	// StoppedBy explains the limit.
	StoppedBy StopReason
	// LastGood is the run result at Calls (nil when Calls is 0).
	LastGood *RunResult
}

// callSequence builds the round-robin gateway call pattern incrementally:
// growing from n to n+1 calls appends flows to one canonical set instead of
// rebuilding it, and per-caller shortest paths are resolved once and shared
// by every call count. Views handed to probes are capacity-capped slices of
// the canonical set, so later extensions never leak into a view.
type callSequence struct {
	topo      *topology.Network
	gw        topology.NodeID
	callers   []topology.NodeID
	rate      float64
	bound     time.Duration
	downlink  bool
	fs        *topology.FlowSet
	calls     int
	upPaths   []topology.Path
	downPaths []topology.Path
}

func newCallSequence(topo *topology.Network, codec voip.Codec, bound time.Duration, downlink bool) (*callSequence, error) {
	gw, ok := topo.Gateway()
	if !ok {
		return nil, errors.New("core: topology has no gateway")
	}
	var callers []topology.NodeID
	for _, nd := range topo.Nodes() {
		if nd.ID != gw {
			callers = append(callers, nd.ID)
		}
	}
	if len(callers) == 0 {
		return nil, errors.New("core: no non-gateway nodes")
	}
	return &callSequence{
		topo:      topo,
		gw:        gw,
		callers:   callers,
		rate:      codec.BandwidthBps(),
		bound:     bound,
		downlink:  downlink,
		fs:        topology.NewFlowSet(topo),
		upPaths:   make([]topology.Path, len(callers)),
		downPaths: make([]topology.Path, len(callers)),
	}, nil
}

func (cs *callSequence) pathTo(caller topology.NodeID, ci int, down bool) (topology.Path, error) {
	cache := cs.upPaths
	src, dst := caller, cs.gw
	if down {
		cache = cs.downPaths
		src, dst = cs.gw, caller
	}
	if cache[ci] == nil {
		p, err := cs.topo.ShortestPath(src, dst)
		if err != nil {
			return nil, fmt.Errorf("add flow %d->%d: %w", src, dst, err)
		}
		cache[ci] = p
	}
	return cache[ci], nil
}

// extend materializes calls up to n (no-op when already there).
func (cs *callSequence) extend(n int) error {
	for ; cs.calls < n; cs.calls++ {
		i := cs.calls
		ci := i % len(cs.callers)
		caller := cs.callers[ci]
		up, err := cs.pathTo(caller, ci, false)
		if err != nil {
			return fmt.Errorf("core: call %d: %w", i, err)
		}
		if _, err := cs.fs.AddOnPath(caller, cs.gw, cs.rate, cs.bound, up); err != nil {
			return fmt.Errorf("core: call %d: %w", i, err)
		}
		if cs.downlink {
			down, err := cs.pathTo(caller, ci, true)
			if err != nil {
				return fmt.Errorf("core: call %d downlink: %w", i, err)
			}
			if _, err := cs.fs.AddOnPath(cs.gw, caller, cs.rate, cs.bound, down); err != nil {
				return fmt.Errorf("core: call %d downlink: %w", i, err)
			}
		}
	}
	return nil
}

// view returns the n-call flow set as an immutable capacity-capped slice of
// the canonical set.
func (cs *callSequence) view(n int) *topology.FlowSet {
	k := n
	if cs.downlink {
		k = 2 * n
	}
	return &topology.FlowSet{Net: cs.fs.Net, Flows: cs.fs.Flows[:k:k]}
}

// prepare materializes the k-call view a probe runs on.
func (cs *callSequence) prepare(k int) (*topology.FlowSet, error) {
	if err := cs.extend(k); err != nil {
		return nil, err
	}
	return cs.view(k), nil
}

// GatewayCalls builds a flow set of n VoIP calls between distinct
// non-gateway nodes and the gateway (uplink; plus downlink when downlink is
// set), assigning callers round-robin over nodes sorted by ID.
func GatewayCalls(topo *topology.Network, n int, codec voip.Codec, bound time.Duration, downlink bool) (*topology.FlowSet, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative call count %d", n)
	}
	seq, err := newCallSequence(topo, codec, bound, downlink)
	if err != nil {
		return nil, err
	}
	return seq.prepare(n)
}

// VoIPCapacityTDMA finds the TDMA-emulation call capacity: the largest
// number of gateway calls that can be scheduled and served at toll quality.
func (s *System) VoIPCapacityTDMA(cfg CapacityConfig) (*CapacityResult, error) {
	cfg.applyDefaults()
	return s.capacitySearch(cfg, true)
}

// VoIPCapacityDCF finds the DCF baseline call capacity under the same call
// pattern (no admission control: calls degrade until quality breaks).
func (s *System) VoIPCapacityDCF(cfg CapacityConfig) (*CapacityResult, error) {
	cfg.applyDefaults()
	return s.capacitySearch(cfg, false)
}

// capacitySearch brackets the capacity with the closed-form analytic screen
// (internal/analytic) and confirms the bracket edge by full-length
// simulation: the screen gallops and bisects over microsecond predictions,
// then one passing run at C and one failing run at C+1 are the only
// simulations the search needs when the prediction holds. A wrong prediction
// falls back to galloping over full-length probes (see screenedSearch), so
// the result always equals the linear reference scan's — the differential
// suite pins that on every R3/R17 scenario.
func (s *System) capacitySearch(cfg CapacityConfig, tdma bool) (*CapacityResult, error) {
	if cfg.MaxCalls < 1 {
		return &CapacityResult{StoppedBy: StopMaxCalls}, nil
	}
	seq, err := newCallSequence(s.Topo, cfg.Run.Codec, cfg.DelayBound, cfg.Downlink)
	if err != nil {
		return nil, err
	}
	probeRun := cfg.Run
	probeRun.AbortOnProvableFailure = true
	reg := obs.Or(cfg.Run.Metrics)
	tr := obs.OrTrace(cfg.Run.Trace)
	p := newProber(s.simProbe(cfg.Method, probeRun, tdma), seq.prepare)
	p.instrument("full", reg, tr)
	ap, err := s.analyticProber(cfg, tdma, seq.prepare)
	if err != nil {
		return nil, err
	}
	ap.instrument("analytic", reg, tr)
	ap.instrumentScreen(reg)
	return screenedSearch(p, ap, cfg.MaxCalls)
}

// simProbe returns the full-length probe of a capacity search: plan (TDMA
// only) and simulate k calls under rc, and report whether every call held
// toll quality.
func (s *System) simProbe(method PlanMethod, rc RunConfig, tdma bool) func(int, *topology.FlowSet) (probeOutcome, error) {
	return func(k int, fs *topology.FlowSet) (probeOutcome, error) {
		if tdma {
			plan, planErr := s.PlanVoIP(fs, method, rc.Codec)
			if planErr != nil {
				return probeOutcome{stop: StopSchedule}, nil
			}
			run, runErr := s.RunTDMA(plan, fs, rc)
			if runErr != nil {
				return probeOutcome{}, runErr
			}
			return outcomeOf(run), nil
		}
		run, runErr := s.RunDCF(fs, rc)
		if runErr != nil {
			return probeOutcome{}, runErr
		}
		return outcomeOf(run), nil
	}
}

func outcomeOf(run *RunResult) probeOutcome {
	if !run.AllAcceptable {
		return probeOutcome{stop: StopQuality}
	}
	return probeOutcome{pass: true, run: run}
}
