package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"wimesh/internal/obs"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// TestAnalyticSearchMatchesLinear pins the screening contract end to end on
// real systems: the analytic-screened galloping search must return results
// identical to the reference linear scan — same capacity, same stop reason,
// same last-good run — because verdicts only ever come from full-length
// probes; the closed-form screen affects which call counts get probed, never
// what a probe decides.
func TestAnalyticSearchMatchesLinear(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*topology.Network, error)
		tdma  bool
	}{
		{"chain4-tdma", func() (*topology.Network, error) { return topology.Chain(4, 100) }, true},
		{"chain4-dcf", func() (*topology.Network, error) { return topology.Chain(4, 100) }, false},
		{"grid9-tdma", func() (*topology.Network, error) { return topology.Grid(3, 3, 100) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh system per search keeps the comparisons independent:
			// nothing cached on one run can leak into another.
			system := func() *System {
				topo, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				sys, err := NewSystem(topo)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			search := func(cfg CapacityConfig) *CapacityResult {
				sys := system()
				var res *CapacityResult
				var err error
				if tc.tdma {
					res, err = sys.VoIPCapacityTDMA(cfg)
				} else {
					res, err = sys.VoIPCapacityDCF(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := CapacityConfig{
				MaxCalls: 12,
				Run:      RunConfig{Duration: time.Second, Seed: 11},
			}
			lin := linearReference(t, system(), base, tc.tdma)
			if lin.Calls == 0 {
				t.Fatalf("degenerate scenario: linear scan found capacity 0 (%s)", lin.StoppedBy)
			}
			if got := search(base); !reflect.DeepEqual(lin, got) {
				t.Fatalf("screened search diverged from linear scan:\nlinear:   calls=%d stop=%s\nscreened: calls=%d stop=%s",
					lin.Calls, lin.StoppedBy, got.Calls, got.StoppedBy)
			}
		})
	}
}

// TestAnalyticVsSimulated sweeps the closed-form model against full
// simulation across topology shapes, codecs and queue depths. At a light
// load (two calls) both must agree the network is acceptable, and the
// prediction must be structurally sane: one entry per flow, ordered delay
// statistics, loss inside [0,1]. Each scenario then runs one screened
// capacity search against a private metrics registry and checks the bracket
// accounting: every search records exactly one verdict on
// core.screen_bracket_hit / core.screen_bracket_miss, and across the whole
// matrix the screen must confirm at least one bracket (a screen that always
// misses is dead weight).
func TestAnalyticVsSimulated(t *testing.T) {
	topos := []struct {
		name  string
		build func() (*topology.Network, error)
	}{
		{"chain6", func() (*topology.Network, error) { return topology.Chain(6, 100) }},
		{"tree7", func() (*topology.Network, error) { return topology.Tree(2, 2) }},
		{"grid9", func() (*topology.Network, error) { return topology.Grid(3, 3, 100) }},
	}
	codecs := []struct {
		name  string
		codec voip.Codec
	}{
		{"g711", voip.G711()},
		{"g729", voip.G729()},
	}
	queueCaps := []int{0, 6} // MAC default and a shallow finite buffer
	var hits, misses uint64
	for _, tp := range topos {
		for _, cd := range codecs {
			for _, qcap := range queueCaps {
				name := fmt.Sprintf("%s/%s/qcap%d", tp.name, cd.name, qcap)
				t.Run(name, func(t *testing.T) {
					topo, err := tp.build()
					if err != nil {
						t.Fatal(err)
					}
					sys, err := NewSystem(topo)
					if err != nil {
						t.Fatal(err)
					}
					fs, err := GatewayCalls(topo, 2, cd.codec, 150*time.Millisecond, false)
					if err != nil {
						t.Fatal(err)
					}
					rc := RunConfig{Duration: time.Second, Seed: 7, Codec: cd.codec, QueueCap: qcap}
					plan, err := sys.PlanVoIP(fs, MethodPathMajor, cd.codec)
					if err != nil {
						t.Fatal(err)
					}
					res, err := sys.RunTDMA(plan, fs, rc)
					if err != nil {
						t.Fatal(err)
					}
					pred, err := sys.AnalyticTDMA(plan, fs, rc)
					if err != nil {
						t.Fatal(err)
					}
					if len(pred.Flows) != len(res.Flows) {
						t.Fatalf("prediction covers %d flows, simulation %d", len(pred.Flows), len(res.Flows))
					}
					for _, pf := range pred.Flows {
						if pf.MeanDelay <= 0 || pf.MaxDelay < pf.MeanDelay || pf.MaxDelay < pf.P95Delay {
							t.Fatalf("flow %d: disordered delay stats mean=%v p95=%v max=%v",
								pf.FlowID, pf.MeanDelay, pf.P95Delay, pf.MaxDelay)
						}
						if pf.Loss < 0 || pf.Loss > 1 {
							t.Fatalf("flow %d: loss %v outside [0,1]", pf.FlowID, pf.Loss)
						}
					}
					if pred.MaxUtilization <= 0 {
						t.Fatalf("max utilization %v, want > 0", pred.MaxUtilization)
					}
					if !res.AllAcceptable {
						t.Fatalf("simulation rejects a 2-call light load (min R %.1f)", res.MinR)
					}
					if !pred.AllAcceptable {
						t.Fatalf("screen rejects a light load the simulation accepts (predicted min R %.1f)", pred.MinR)
					}

					reg := obs.NewRegistry()
					capRes, err := sys.VoIPCapacityTDMA(CapacityConfig{
						MaxCalls: 10,
						Run:      RunConfig{Duration: time.Second, Seed: 7, Codec: cd.codec, QueueCap: qcap, Metrics: reg},
					})
					if err != nil {
						t.Fatal(err)
					}
					h := reg.Counter("core.screen_bracket_hit").Value()
					m := reg.Counter("core.screen_bracket_miss").Value()
					if h+m != 1 {
						t.Fatalf("bracket accounting: hit=%d miss=%d, want exactly one verdict per search", h, m)
					}
					// The 2-call run passed above with this exact probe
					// config, so the (linear-equivalent) search must admit
					// at least those calls.
					if capRes.Calls < 2 {
						t.Fatalf("capacity %d (stop %s), but 2 calls were acceptable", capRes.Calls, capRes.StoppedBy)
					}
					hits += h
					misses += m
				})
			}
		}
	}
	if hits == 0 {
		t.Fatalf("analytic screen never confirmed a bracket across the matrix (%d misses)", misses)
	}
	t.Logf("bracket verdicts across matrix: %d hits, %d misses", hits, misses)
}
