// Package core is the public facade of the wimesh library: it wires the
// mesh topology, conflict graph, TDMA frame, QoS planner (ILP and heuristic
// schedulers) and the two MACs (TDMA-over-WiFi emulation and the 802.11 DCF
// baseline) into a small API:
//
//	sys, _ := core.NewSystem(topo)
//	fs := topology.NewFlowSet(topo)           // add VoIP flows
//	plan, _ := sys.Plan(fs, core.MethodILP)   // conflict-free schedule
//	res, _ := sys.RunTDMA(plan, fs, core.RunConfig{Duration: 10 * time.Second})
//
// Examples under examples/ and the benchmark harness (cmd/meshbench,
// bench_test.go) are thin wrappers over this package.
package core

import (
	"errors"
	"fmt"

	"wimesh/internal/conflict"
	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// Option customizes NewSystem.
type Option interface {
	apply(*System)
}

type optionFunc func(*System)

func (f optionFunc) apply(s *System) { f(s) }

// WithFrame overrides the TDMA frame layout (default
// tdma.DefaultEmulationFrame).
func WithFrame(f tdma.FrameConfig) Option {
	return optionFunc(func(s *System) { s.Frame = f })
}

// WithConflictModel overrides the interference model used for the conflict
// graph. The default is conflict.ModelGeometric with the system's
// InterferenceRange, which matches exactly the collision rule the simulated
// medium applies — a schedule that is conflict-free under any weaker model
// (e.g. ModelTwoHop on a dense topology) can still collide on the air.
func WithConflictModel(m conflict.Model) Option {
	return optionFunc(func(s *System) { s.conflictModel = m })
}

// System bundles one mesh deployment: topology, interference, frame layout
// and MAC parameters.
type System struct {
	Topo  *topology.Network
	Graph *conflict.Graph
	Frame tdma.FrameConfig
	MAC   tdmaemu.Config
	// InterferenceRange is the radio interference radius in meters.
	InterferenceRange float64
	// ZoneSize is the zone edge for MethodPartitioned (0 = automatic).
	ZoneSize float64

	conflictModel conflict.Model
}

// NewSystem builds a system over the topology with defaults: the emulation
// frame (20 ms, 16 slots), 802.11b at 11 Mb/s with a 100 us guard, and
// geometric interference with a 250 m range (conflict graph and medium use
// the same rule).
func NewSystem(topo *topology.Network, opts ...Option) (*System, error) {
	if topo == nil {
		return nil, errors.New("core: nil topology")
	}
	s := &System{
		Topo:              topo,
		Frame:             tdma.DefaultEmulationFrame(),
		InterferenceRange: 250,
		conflictModel:     conflict.ModelGeometric,
	}
	for _, o := range opts {
		o.apply(s)
	}
	if err := s.Frame.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	g, err := conflict.Build(topo, conflict.Options{
		Model:             s.conflictModel,
		InterferenceRange: s.InterferenceRange,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.Graph = g
	return s, nil
}

// BytesPerSlot returns the IP payload bytes one data slot carries for
// packets of the given size under the system's MAC parameters.
func (s *System) BytesPerSlot(packetBytes int) (int, error) {
	return tdmaemu.BytesPerSlot(s.MAC, s.Frame, packetBytes)
}
