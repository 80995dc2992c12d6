// Package scenario provides the shared, serializable description of a
// simulation scenario — topology, call pattern, codec, scheduler — and a
// JSON plan format, so cmd/meshplan can save a computed schedule and
// cmd/meshsim can run it later without replanning.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// Spec names a reproducible scenario.
type Spec struct {
	// Topology: chain, ring, grid, tree, random.
	Topology string `json:"topology"`
	// Nodes sizes the topology (grid rounds to a square, tree to a full
	// binary tree).
	Nodes int `json:"nodes"`
	// Seed drives random topologies.
	Seed int64 `json:"seed"`
	// Calls is the number of VoIP calls to the gateway.
	Calls int `json:"calls"`
	// Codec: g711, g729, g723.
	Codec string `json:"codec"`
	// DelayBound is the per-call budget, as a Go duration string ("" or 0 =
	// none; negative is an error).
	DelayBound string `json:"delayBound,omitempty"`
	// Method: ilp, minmax-delay, path-major, tree-order, greedy.
	Method string `json:"method"`
}

// BuildTopology constructs the topology the spec names. Grid and tree round
// a size up, but never one below 1: that is topology.ErrBadParameter, as
// the other generators report it.
func (s Spec) BuildTopology() (*topology.Network, error) {
	if s.Nodes < 1 && (s.Topology == "grid" || s.Topology == "tree") {
		return nil, fmt.Errorf("scenario: %s of %d nodes: %w", s.Topology, s.Nodes, topology.ErrBadParameter)
	}
	switch s.Topology {
	case "chain":
		return topology.Chain(s.Nodes, 100)
	case "ring":
		return topology.Ring(s.Nodes, 200)
	case "grid":
		side := 2
		for side*side < s.Nodes {
			side++
		}
		return topology.Grid(side, side, 100)
	case "tree":
		depth := 1
		for (1<<(depth+1))-1 < s.Nodes {
			depth++
		}
		return topology.Tree(2, depth)
	case "random":
		return topology.RandomDisk(s.Nodes, 600, 250, s.Seed)
	default:
		return nil, fmt.Errorf("scenario: unknown topology %q", s.Topology)
	}
}

// BuildCodec resolves the codec name.
func (s Spec) BuildCodec() (voip.Codec, error) {
	switch s.Codec {
	case "", "g711":
		return voip.G711(), nil
	case "g729":
		return voip.G729(), nil
	case "g723":
		return voip.G7231(), nil
	default:
		return voip.Codec{}, fmt.Errorf("scenario: unknown codec %q", s.Codec)
	}
}

// BuildMethod resolves the scheduler name.
func (s Spec) BuildMethod() (core.PlanMethod, error) {
	switch s.Method {
	case "ilp":
		return core.MethodILP, nil
	case "minmax-delay":
		return core.MethodMinMaxDelay, nil
	case "", "path-major":
		return core.MethodPathMajor, nil
	case "tree-order":
		return core.MethodTreeOrder, nil
	case "greedy":
		return core.MethodGreedy, nil
	case "partitioned":
		return core.MethodPartitioned, nil
	default:
		return 0, fmt.Errorf("scenario: unknown method %q", s.Method)
	}
}

// Bound parses the delay bound ("" or 0 = none). A negative bound is an
// error of the spec, not a capacity verdict.
func (s Spec) Bound() (time.Duration, error) {
	if s.DelayBound == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s.DelayBound)
	if err != nil {
		return 0, fmt.Errorf("scenario: delay bound: %w", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("scenario: delay bound %v: must not be negative (0 = none)", d)
	}
	return d, nil
}

// BuildFlows constructs the call set over topo.
func (s Spec) BuildFlows(topo *topology.Network) (*topology.FlowSet, error) {
	codec, err := s.BuildCodec()
	if err != nil {
		return nil, err
	}
	bound, err := s.Bound()
	if err != nil {
		return nil, err
	}
	return core.GatewayCalls(topo, s.Calls, codec, bound, false)
}

// frameJSON serializes a tdma.FrameConfig with readable durations.
type frameJSON struct {
	FrameDuration       string `json:"frameDuration"`
	ControlSlots        int    `json:"controlSlots"`
	ControlSlotDuration string `json:"controlSlotDuration,omitempty"`
	DataSlots           int    `json:"dataSlots"`
}

type assignmentJSON struct {
	Link   int `json:"link"`
	Start  int `json:"start"`
	Length int `json:"length"`
}

// SavedPlan is the on-disk form of a computed schedule plus the scenario
// that produced it.
type SavedPlan struct {
	Spec        Spec             `json:"spec"`
	Frame       frameJSON        `json:"frame"`
	WindowSlots int              `json:"windowSlots"`
	Assignments []assignmentJSON `json:"assignments"`
}

// Save writes the plan as indented JSON.
func Save(w io.Writer, spec Spec, frame tdma.FrameConfig, plan *core.Plan) error {
	if plan == nil || plan.Schedule == nil {
		return errors.New("scenario: nil plan")
	}
	sp := SavedPlan{
		Spec: spec,
		Frame: frameJSON{
			FrameDuration: frame.FrameDuration.String(),
			ControlSlots:  frame.ControlSlots,
			DataSlots:     frame.DataSlots,
		},
		WindowSlots: plan.WindowSlots,
	}
	if frame.ControlSlotDuration > 0 {
		sp.Frame.ControlSlotDuration = frame.ControlSlotDuration.String()
	}
	for _, a := range plan.Schedule.Assignments {
		sp.Assignments = append(sp.Assignments, assignmentJSON{
			Link: int(a.Link), Start: a.Start, Length: a.Length,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sp)
}

// Load parses a saved plan.
func Load(r io.Reader) (*SavedPlan, error) {
	var sp SavedPlan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &sp, nil
}

// Frame reconstructs the frame layout.
func (sp *SavedPlan) FrameConfig() (tdma.FrameConfig, error) {
	fd, err := time.ParseDuration(sp.Frame.FrameDuration)
	if err != nil {
		return tdma.FrameConfig{}, fmt.Errorf("scenario: frame duration: %w", err)
	}
	cfg := tdma.FrameConfig{
		FrameDuration: fd,
		ControlSlots:  sp.Frame.ControlSlots,
		DataSlots:     sp.Frame.DataSlots,
	}
	if sp.Frame.ControlSlotDuration != "" {
		cd, err := time.ParseDuration(sp.Frame.ControlSlotDuration)
		if err != nil {
			return tdma.FrameConfig{}, fmt.Errorf("scenario: control slot duration: %w", err)
		}
		cfg.ControlSlotDuration = cd
	}
	if err := cfg.Validate(); err != nil {
		return tdma.FrameConfig{}, err
	}
	return cfg, nil
}

// Schedule reconstructs the schedule (validating every assignment against
// the frame).
func (sp *SavedPlan) Schedule() (*tdma.Schedule, error) {
	cfg, err := sp.FrameConfig()
	if err != nil {
		return nil, err
	}
	s, err := tdma.NewSchedule(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range sp.Assignments {
		if err := s.Add(tdma.Assignment{
			Link:   topology.LinkID(a.Link),
			Start:  a.Start,
			Length: a.Length,
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}
