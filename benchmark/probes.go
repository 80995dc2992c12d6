package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"wimesh/internal/lp"
	"wimesh/internal/mac"
	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// Layer probes: lp, milp, schedule, sim and mac only ever run inside another
// layer's call, so a workload cannot time them from outside. Each probe is a
// small direct call with a seeded input, timed here, that says how fast the
// layer itself is on this host. They run once per traced run.

// medianOf runs fn n times under one probe span and returns the median
// duration, or the first error.
func (t *tracer) medianOf(n int, name string, fn func() error) (time.Duration, error) {
	id := t.begin(name, "probe", 0)
	defer t.end(id)
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	return quantile(ds, 0.5), nil
}

// probeLayers runs the workload-independent probes.
func probeLayers(m map[string]float64, rs runSpec) {
	for _, probe := range []func(map[string]float64, runSpec) error{lpProbe, milpProbe, simProbe, macProbe} {
		if err := probe(m, rs); err != nil {
			// A probe feeds only per-layer metrics; a broken one is reported
			// and reads 0 rather than failing the workload.
			fmt.Fprintln(os.Stderr, "benchmark: probe:", err)
		}
	}
}

// lpProbe cold-solves a seeded bounded LP: maximise a positive objective
// over dense <= rows with positive coefficients, every variable in [0, 10].
func lpProbe(m map[string]float64, rs runSpec) error {
	const vars, rows = 120, 80
	rng := rand.New(rand.NewSource(rs.seed))
	p := lp.NewProblem(lp.Maximize, vars)
	for j := 0; j < vars; j++ {
		if err := p.SetObjCoef(j, 1+rng.Float64()); err != nil {
			return err
		}
		if err := p.SetUpper(j, 10); err != nil {
			return err
		}
	}
	for i := 0; i < rows; i++ {
		coef := make(map[int]float64)
		for j := 0; j < vars; j++ {
			if rng.Intn(4) == 0 {
				coef[j] = 1 + rng.Float64()
			}
		}
		if err := p.AddConstraint(coef, lp.LE, 20+20*rng.Float64()); err != nil {
			return err
		}
	}
	c, err := lp.Compile(p)
	if err != nil {
		return err
	}
	var sol *lp.Solution
	d, err := rs.tr.medianOf(15, "lp.Solve", func() (err error) {
		sol, err = lp.NewSolver().Solve(c, nil, nil)
		return
	})
	if err != nil {
		return fmt.Errorf("lp probe: %w", err)
	}
	m["lp.probe_us"] = us(d)
	m["lp.probe_pivots"] = float64(sol.Iterations)
	m["lp.probe_ns_per_pivot"] = ratio(float64(d.Nanoseconds()), float64(sol.Iterations))
	return nil
}

// milpProbe solves a seeded ordering ILP built through milp.Model, the shape
// of the scheduler's own formulation: jobs with lengths, a binary order
// variable and two big-M rows per conflicting pair, minimise the makespan.
func milpProbe(m map[string]float64, rs runSpec) error {
	const jobs, bigM = 9, 64
	rng := rand.New(rand.NewSource(rs.seed))
	mod := milp.NewModel(milp.Minimize)
	span, err := mod.AddVar("span", milp.Continuous, bigM, 1)
	if err != nil {
		return err
	}
	starts := make([]milp.VarID, jobs)
	lengths := make([]float64, jobs)
	for j := range starts {
		if starts[j], err = mod.AddVar(fmt.Sprintf("s%d", j), milp.Continuous, bigM, 0); err != nil {
			return err
		}
		lengths[j] = float64(1 + rng.Intn(4))
		// s_j + len_j <= span
		if err := mod.AddConstraint(map[milp.VarID]float64{starts[j]: 1, span: -1}, milp.LE, -lengths[j]); err != nil {
			return err
		}
	}
	for a := 0; a < jobs; a++ {
		for b := a + 1; b < jobs; b++ {
			if rng.Intn(3) == 0 {
				continue // this pair may overlap
			}
			o, err := mod.AddVar(fmt.Sprintf("o%d_%d", a, b), milp.Binary, 1, 0)
			if err != nil {
				return err
			}
			// o = 1: a before b; o = 0: b before a.
			if err := mod.AddConstraint(map[milp.VarID]float64{starts[a]: 1, starts[b]: -1, o: bigM}, milp.LE, bigM-lengths[a]); err != nil {
				return err
			}
			if err := mod.AddConstraint(map[milp.VarID]float64{starts[b]: 1, starts[a]: -1, o: -bigM}, milp.LE, -lengths[b]); err != nil {
				return err
			}
		}
	}
	var sol *milp.Solution
	d, err := rs.tr.medianOf(5, "milp.Solve", func() (err error) {
		sol, err = mod.Solve(milp.Options{MaxNodes: 2000, Workers: 1})
		if errors.Is(err, milp.ErrLimit) {
			err = nil // the node budget ran out: still a fixed amount of work
		}
		return
	})
	if err != nil {
		return fmt.Errorf("milp probe: %w", err)
	}
	m["milp.probe_ms"] = ms(d)
	if sol != nil {
		m["milp.probe_nodes"] = float64(sol.Nodes)
	}
	return nil
}

// simProbe times the event kernel alone: a self-rescheduling timer per
// simulated station, stepped for a fixed number of events.
func simProbe(m map[string]float64, rs runSpec) error {
	const timers, events = 64, 400_000
	d, err := rs.tr.medianOf(5, "sim.Step", func() (err error) {
		k := sim.NewKernel()
		for t := 0; t < timers; t++ {
			period := time.Duration(100+t) * time.Microsecond
			var tick func()
			tick = func() {
				if _, e := k.After(period, tick); e != nil && err == nil {
					err = e
				}
			}
			tick()
		}
		for i := 0; i < events && k.Step(); i++ {
		}
		return
	})
	if err != nil {
		return fmt.Errorf("sim probe: %w", err)
	}
	m["sim.probe_ns_per_event"] = float64(d.Nanoseconds()) / events
	return nil
}

// macProbe times Medium.Transmit with its delivery: stations of a 5x5 grid
// take turns sending one frame to a neighbour, no two on air at once.
func macProbe(m map[string]float64, rs runSpec) error {
	const frames = 100_000
	topo, err := topology.Grid(5, 5, 100)
	if err != nil {
		return err
	}
	links := topo.Links()
	d, err := rs.tr.medianOf(5, "mac.Transmit", func() error {
		k := sim.NewKernel()
		med, err := mac.NewMedium(topo, k, 250)
		if err != nil {
			return err
		}
		for i := 0; i < frames; i++ {
			l := links[i%len(links)]
			if err := med.Transmit(mac.Frame{From: l.From, To: l.To, Bytes: 200}, 100*time.Microsecond); err != nil {
				return err
			}
			k.Run()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mac probe: %w", err)
	}
	m["mac.probe_ns_per_tx"] = float64(d.Nanoseconds()) / frames
	return nil
}

// scheduleProbe re-plans, cold, the demand the engine is serving when a
// village_churn replay ends: once with the exact ILP window search, once
// with the greedy colouring.
func scheduleProbe(m map[string]float64, s *servingSetup, live *tdma.Schedule, tr *tracer) error {
	demand := make(map[topology.LinkID]int)
	for _, a := range live.Assignments {
		demand[a.Link] += a.Length
	}
	if len(demand) == 0 {
		return nil
	}
	p := &schedule.Problem{Graph: s.graph, Demand: demand, FrameSlots: s.cfg.Frame.DataSlots}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("schedule probe: %w", err)
	}
	d, err := tr.timed("schedule.MinSlots", "probe", 0, func() error {
		win, _, _, err := schedule.MinSlots(p, s.cfg.Frame, milp.Options{MaxNodes: 200, Workers: 1})
		if err == nil {
			m["schedule.ilp_window"] = float64(win)
		} else if errors.Is(err, milp.ErrLimit) {
			err = nil
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("schedule probe: %w", err)
	}
	m["schedule.cold_replan_ms"] = ms(d)

	d, err = tr.timed("schedule.Greedy", "probe", 0, func() error {
		g, err := schedule.Greedy(p, s.cfg.Frame)
		if err == nil {
			m["schedule.greedy_window"] = float64(schedule.GreedyLength(g))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("schedule probe: %w", err)
	}
	m["schedule.greedy_ms"] = ms(d)
	return nil
}
