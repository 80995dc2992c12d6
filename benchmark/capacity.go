package main

import (
	"fmt"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/obs"
	"wimesh/internal/topology"
)

// capacityParams sizes the capacity-search workload: Passes passes over
// R3's four topologies, a TDMA and a DCF search on each, every pass under
// its own simulation seed.
type capacityParams struct {
	Topologies []string `json:"topologies"`
	MaxCalls   int      `json:"max_calls"`
	RunSeconds float64  `json:"simulated_s_per_probe"`
	Passes     int      `json:"passes"`
}

func buildR3Topology(name string) (*topology.Network, error) {
	switch name {
	case "chain4":
		return topology.Chain(4, 100)
	case "chain6":
		return topology.Chain(6, 100)
	case "grid9":
		return topology.Grid(3, 3, 100)
	case "random12":
		return topology.RandomDisk(12, 600, 250, 5)
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

type capacitySetup struct {
	systems []*core.System

	topoDur, systemDur time.Duration
}

func setupCapacity(p capacityParams, tr *tracer) (*capacitySetup, error) {
	s := &capacitySetup{}
	root := tr.begin("setup", "setup", 0)
	defer tr.end(root)
	for _, name := range p.Topologies {
		var topo *topology.Network
		var sys *core.System
		d, err := tr.timed("topology.build", name, root, func() (err error) {
			topo, err = buildR3Topology(name)
			return
		})
		if err != nil {
			return nil, err
		}
		s.topoDur += d
		d, err = tr.timed("core.NewSystem", name, root, func() (err error) {
			sys, err = core.NewSystem(topo)
			return
		})
		if err != nil {
			return nil, err
		}
		s.systemDur += d
		s.systems = append(s.systems, sys)
	}
	return s, nil
}

// passResult is one pass: a TDMA and a DCF capacity search on every
// topology. The pass, not the single search, is the workload's operation:
// the eight searches differ tenfold in cost, so a median over searches would
// sit on the step between two of them.
type passResult struct {
	took  time.Duration
	calls int    // sum of the capacities found
	sig   uint64 // capacity and stop reason of every search
}

func (r passResult) wall() time.Duration { return r.took }
func (r passResult) signature() uint64   { return r.sig }

func capacityPasses(s *capacitySetup, p capacityParams, seed int64, passes int, guard time.Duration, tr *tracer) (results []passResult, truncated bool, err error) {
	var spent time.Duration
	for pass := 0; pass < passes; pass++ {
		if pass > 0 && spent >= guard {
			return results, true, nil
		}
		cfg := core.CapacityConfig{
			MaxCalls: p.MaxCalls,
			Run: core.RunConfig{
				Duration: time.Duration(p.RunSeconds * float64(time.Second)),
				Seed:     subSeed(seed, pass),
			},
			Workers: 1,
		}
		var pr passResult
		root := tr.begin("pass", fmt.Sprintf("pass%d", pass), 0)
		for i, sys := range s.systems {
			for _, mac := range []string{"tdma", "dcf"} {
				req := fmt.Sprintf("pass%d-%s-%s", pass, p.Topologies[i], mac)
				var res *core.CapacityResult
				took, err := tr.timed("core.VoIPCapacity", req, root, func() (err error) {
					if mac == "tdma" {
						res, err = sys.VoIPCapacityTDMA(cfg)
					} else {
						res, err = sys.VoIPCapacityDCF(cfg)
					}
					return
				})
				if err != nil {
					tr.end(root)
					return nil, false, fmt.Errorf("%s: %w", req, err)
				}
				pr.took += took
				pr.calls += res.Calls
				pr.sig = fold(pr.sig, res.Calls)
				for _, c := range []byte(res.StoppedBy) {
					pr.sig = fold(pr.sig, int(c))
				}
			}
		}
		tr.end(root)
		spent += pr.took
		results = append(results, pr)
	}
	return results, false, nil
}

func runCapacity(p capacityParams, rs runSpec) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var s *capacitySetup
	var err error
	out.setups, err = repeatSetup(rs, func(tr *tracer) (time.Duration, error) {
		if s, err = setupCapacity(p, tr); err != nil {
			return 0, err
		}
		return s.topoDur + s.systemDur, nil
	})
	if err != nil {
		return nil, err
	}
	measured, reg, err := twoPasses(rs, out, rs.planned(p.Passes),
		func(n int, guard time.Duration, _ *obs.Registry, tr *tracer) ([]passResult, bool, error) {
			return capacityPasses(s, p, rs.seed, n, guard, tr)
		})
	if err != nil {
		return nil, err
	}

	calls := 0
	for _, r := range measured {
		out.ops = append(out.ops, r.took)
		calls += r.calls
	}
	out.responses = out.ops
	out.attempted = len(out.ops)
	// Share of the calls a search may try that the mesh carried at toll
	// quality.
	out.offered = float64(len(measured) * 2 * len(s.systems) * p.MaxCalls)
	out.served = float64(calls)

	if rs.trace {
		m := out.layers
		m["topology.build_ms"] = ms(s.topoDur)
		m["core.newsystem_ms"] = ms(s.systemDur)
		for _, sys := range s.systems {
			m["topology.links"] += float64(sys.Topo.NumLinks())
			m["conflict.edges"] += float64(sys.Graph.NumEdges())
		}
		snap := reg.Snapshot()
		m["core.full_sims"] = float64(snap.Counters["core.probes.full"])
		m["core.probes"] = m["core.full_sims"] + float64(snap.Counters["core.probes.analytic"])
		hit, miss := float64(snap.Counters["core.screen_bracket_hit"]), float64(snap.Counters["core.screen_bracket_miss"])
		m["core.screen_hit_share"] = ratio(hit, hit+miss)
		m["core.capacity_calls"] = float64(calls)
		// Simulated seconds are not knowable from outside a search (probes
		// abort early), so only the event and transmission counts are kept.
		simLayers(m, reg, out.wall, 0)
	}
	return out, nil
}
