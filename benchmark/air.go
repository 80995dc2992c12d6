package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/obs"
	"wimesh/internal/schedule"
	"wimesh/internal/timesync"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// airParams sizes a data-plane workload: Runs simulation runs, each of its
// own random set of gateway calls and its own simulation seed.
type airParams struct {
	Mesh       string  `json:"mesh"`
	MAC        string  `json:"mac"` // "tdma" or "dcf"
	Calls      int     `json:"calls_per_run"`
	SimSeconds float64 `json:"simulated_s_per_run"`
	Runs       int     `json:"runs"`
}

const callDelayBound = 150 * time.Millisecond

// airRun is one prepared simulation: a call set, its plan (TDMA) and a seed.
type airRun struct {
	flows *topology.FlowSet
	plan  *core.Plan
	cfg   core.RunConfig
}

type airSetup struct {
	sys  *core.System
	runs []airRun

	topoDur, systemDur, generateDur, planDur time.Duration
}

// gatewayCalls draws n distinct callers and routes each to the gateway.
func gatewayCalls(topo *topology.Network, n int, rate float64, rng *rand.Rand) (*topology.FlowSet, error) {
	gw, ok := topo.Gateway()
	if !ok {
		return nil, fmt.Errorf("mesh has no gateway")
	}
	fs := topology.NewFlowSet(topo)
	for _, i := range rng.Perm(topo.NumNodes()) {
		if len(fs.Flows) == n {
			break
		}
		if src := topology.NodeID(i); src != gw {
			if _, err := fs.Add(src, gw, rate, callDelayBound); err != nil {
				return nil, err
			}
		}
	}
	return fs, nil
}

func setupAir(p airParams, seed int64, runs int, tr *tracer) (*airSetup, error) {
	s := &airSetup{}
	root := tr.begin("setup", "setup", 0)
	defer tr.end(root)
	var topo *topology.Network
	var err error

	s.topoDur, err = tr.timed("topology.build", "setup", root, func() (err error) {
		topo, err = buildMesh(p.Mesh)
		return
	})
	if err != nil {
		return nil, err
	}
	s.systemDur, err = tr.timed("core.NewSystem", "setup", root, func() (err error) {
		s.sys, err = core.NewSystem(topo)
		return
	})
	if err != nil {
		return nil, err
	}

	// A call set is kept only if the path-major planner fits it into the
	// frame, so both MACs carry the same feasible sets and no run fails for
	// want of a schedule; the draw repeats until one fits.
	codec := voip.G711()
	sync := timesync.DefaultConfig()
	id := tr.begin("workload.generate", "setup", root)
	defer tr.end(id)
	start := time.Now()
	for i := 0; i < runs; i++ {
		runSeed := subSeed(seed, i)
		rng := rand.New(rand.NewSource(runSeed))
		var fs *topology.FlowSet
		var plan *core.Plan
		for plan == nil {
			if fs, err = gatewayCalls(topo, p.Calls, codec.BandwidthBps(), rng); err != nil {
				return nil, err
			}
			d, planErr := tr.timed("core.PlanVoIP", "setup", id, func() (err error) {
				plan, err = s.sys.PlanVoIP(fs, core.MethodPathMajor, codec)
				return
			})
			s.planDur += d
			if planErr != nil && !errors.Is(planErr, schedule.ErrInfeasible) {
				return nil, planErr
			}
		}
		s.runs = append(s.runs, airRun{flows: fs, plan: plan, cfg: core.RunConfig{
			Duration: time.Duration(p.SimSeconds * float64(time.Second)),
			Codec:    codec, Seed: runSeed, Sync: &sync,
		}})
	}
	s.generateDur = time.Since(start) - s.planDur
	return s, nil
}

// airResult is one simulation run.
type airResult struct {
	took time.Duration
	res  *core.RunResult
}

func (r airResult) wall() time.Duration { return r.took }

func (r airResult) signature() uint64 {
	h := fold(0, int(math.Float64bits(r.res.MinR)))
	if st := r.res.TDMA; st != nil {
		h = fold(h, int(st.Transmissions), int(st.Delivered), int(st.Violations))
	}
	if st := r.res.DCF; st != nil {
		h = fold(h, int(st.Transmissions), int(st.Delivered), int(st.Collisions))
	}
	return h
}

// simulate runs the first n prepared simulations.
func simulate(s *airSetup, p airParams, runs []airRun, guard time.Duration, tr *tracer) (done []airResult, truncated bool, err error) {
	var spent time.Duration
	for i, r := range runs {
		if i > 0 && spent >= guard {
			return done, true, nil
		}
		req := fmt.Sprintf("run%d", i)
		root := tr.begin("run", req, 0)
		var res *core.RunResult
		var took time.Duration
		if p.MAC == "tdma" {
			took, err = tr.timed("core.RunTDMA", req, root, func() (err error) {
				res, err = s.sys.RunTDMA(r.plan, r.flows, r.cfg)
				return
			})
		} else {
			took, err = tr.timed("core.RunDCF", req, root, func() (err error) {
				res, err = s.sys.RunDCF(r.flows, r.cfg)
				return
			})
		}
		tr.end(root)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", req, err)
		}
		spent += took
		done = append(done, airResult{took: took, res: res})
	}
	return done, false, nil
}

func runAir(p airParams, rs runSpec) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var s *airSetup
	var err error
	out.setups, err = repeatSetup(rs, func(tr *tracer) (time.Duration, error) {
		if s, err = setupAir(p, rs.seed, rs.planned(p.Runs), tr); err != nil {
			return 0, err
		}
		return s.topoDur + s.systemDur + s.generateDur + s.planDur, nil
	})
	if err != nil {
		return nil, err
	}
	measured, reg, err := twoPasses(rs, out, len(s.runs),
		func(n int, guard time.Duration, _ *obs.Registry, tr *tracer) ([]airResult, bool, error) {
			return simulate(s, p, s.runs[:n], guard, tr)
		})
	if err != nil {
		return nil, err
	}
	if p.MAC == "tdma" {
		// Under the clock model a rare sync error beyond the guard may cost a
		// slot, which the quality score then carries. With ideal clocks a
		// valid plan must never collide: that is the correctness gate.
		ideal := slices.Clone(s.runs[:max(1, len(measured)/10)])
		for i := range ideal {
			ideal[i].cfg.Sync = nil
		}
		third, _, err := simulate(s, p, ideal, time.Hour, nil)
		if err != nil {
			return nil, err
		}
		for i, r := range third {
			if r.res.TDMA.Violations > 0 {
				out.gate = append(out.gate, fmt.Sprintf("run %d: %d slot violations on air under ideal clocks", i, r.res.TDMA.Violations))
			}
		}
	}

	minR := math.Inf(1)
	for _, r := range measured {
		out.ops = append(out.ops, r.took)
		out.offered += float64(len(r.res.Flows))
		for _, f := range r.res.Flows {
			if f.Quality.Acceptable() {
				out.served++
			}
		}
		minR = min(minR, r.res.MinR)
	}
	out.responses = out.ops
	out.attempted = len(out.ops)

	if rs.trace {
		m := out.layers
		m["topology.build_ms"] = ms(s.topoDur)
		m["topology.links"] = float64(s.sys.Topo.NumLinks())
		m["conflict.edges"] = float64(s.sys.Graph.NumEdges())
		m["core.newsystem_ms"] = ms(s.systemDur)
		m["workload.generate_ms"] = ms(s.generateDur)
		m["core.plan_ms"] = ms(s.planDur)
		m["voip.min_r"] = minR
		simLayers(m, reg, out.wall, p.SimSeconds*float64(len(measured)))
		if p.MAC == "tdma" {
			r := s.runs[0]
			d, err := rs.tr.medianOf(25, "core.AnalyticTDMA", func() error {
				_, err := s.sys.AnalyticTDMA(r.plan, r.flows, r.cfg)
				return err
			})
			if err != nil {
				return nil, err
			}
			m["analytic.predict_us"] = us(d)
		}
	}
	return out, nil
}

// simLayers fills the sim.*, mac.*, tdmaemu.*, dcf.* and timesync.* metrics
// from the layers' own counters over the traced pass.
func simLayers(m map[string]float64, reg *obs.Registry, wall time.Duration, simSeconds float64) {
	snap := reg.Snapshot()
	for _, name := range []string{
		"sim.events_executed", "sim.events_canceled",
		"mac.tx_started", "mac.tx_delivered", "mac.tx_collided",
		"tdmaemu.transmissions", "tdmaemu.slots_served", "tdmaemu.violations", "tdmaemu.guard_overruns",
		"dcf.tx_attempts", "dcf.collisions", "dcf.retry_drops",
		"timesync.resync_rounds",
	} {
		m[name] = float64(snap.Counters[name])
	}
	m["sim.ns_per_event"] = ratio(float64(wall.Nanoseconds()), m["sim.events_executed"])
	m["sim.events_per_sim_s"] = ratio(m["sim.events_executed"], simSeconds)
	m["sim.speed_x"] = ratio(simSeconds, wall.Seconds())
	m["mac.tx_per_sim_s"] = ratio(m["mac.tx_started"], simSeconds)
	m["dcf.collision_share"] = ratio(m["dcf.collisions"], m["dcf.tx_attempts"])
}
