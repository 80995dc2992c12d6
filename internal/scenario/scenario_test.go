package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

func specChain() Spec {
	return Spec{Topology: "chain", Nodes: 5, Calls: 2, Codec: "g711",
		DelayBound: "150ms", Method: "path-major"}
}

func TestBuildTopologyAllKinds(t *testing.T) {
	for _, name := range []string{"chain", "ring", "grid", "tree", "random"} {
		s := Spec{Topology: name, Nodes: 6, Seed: 3}
		topo, err := s.BuildTopology()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if topo.NumNodes() < 6 && name != "tree" {
			t.Errorf("%s: %d nodes", name, topo.NumNodes())
		}
	}
	if _, err := (Spec{Topology: "donut"}).BuildTopology(); err == nil {
		t.Error("unknown topology accepted")
	}
}

// TestBuildTopologyRejectsNonPositiveNodes: grid and tree used to round any
// size up to their smallest shape, so -nodes -4 planned a 4-node grid and
// -nodes -5 a 3-node tree. Chain, ring and random already rejected them.
func TestBuildTopologyRejectsNonPositiveNodes(t *testing.T) {
	for _, s := range []Spec{
		{Topology: "grid", Nodes: -4},
		{Topology: "grid", Nodes: 0},
		{Topology: "tree", Nodes: -5},
		{Topology: "tree", Nodes: 0},
	} {
		if _, err := s.BuildTopology(); !errors.Is(err, topology.ErrBadParameter) {
			t.Errorf("%s of %d nodes: err %v, want ErrBadParameter", s.Topology, s.Nodes, err)
		}
	}
}

func TestBuildCodecAndMethodAndBound(t *testing.T) {
	s := specChain()
	c, err := s.BuildCodec()
	if err != nil || c.Name != "G.711" {
		t.Errorf("codec = %v, %v", c.Name, err)
	}
	if _, err := (Spec{Codec: "mp3"}).BuildCodec(); err == nil {
		t.Error("unknown codec accepted")
	}
	m, err := s.BuildMethod()
	if err != nil || m != core.MethodPathMajor {
		t.Errorf("method = %v, %v", m, err)
	}
	if _, err := (Spec{Method: "magic"}).BuildMethod(); err == nil {
		t.Error("unknown method accepted")
	}
	d, err := s.Bound()
	if err != nil || d != 150*time.Millisecond {
		t.Errorf("bound = %v, %v", d, err)
	}
	if _, err := (Spec{DelayBound: "soon"}).Bound(); err == nil {
		t.Error("bad bound accepted")
	}
	if _, err := (Spec{DelayBound: "-1s"}).Bound(); err == nil || !strings.Contains(err.Error(), "-1s") {
		t.Errorf("negative bound: err = %v, want one naming -1s", err)
	}
	if d, err := (Spec{DelayBound: "0s"}).Bound(); err != nil || d != 0 {
		t.Errorf("zero bound = %v, %v, want 0 (none)", d, err)
	}
	for _, calls := range []int{-1, -5} {
		sp := specChain()
		sp.Calls = calls
		topo, err := sp.BuildTopology()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.BuildFlows(topo); err == nil || !strings.Contains(err.Error(), fmt.Sprint(calls)) {
			t.Errorf("calls %d: err = %v, want one naming the count", calls, err)
		}
	}
	// Defaults: empty codec and method resolve.
	if _, err := (Spec{}).BuildCodec(); err != nil {
		t.Errorf("default codec: %v", err)
	}
	if _, err := (Spec{}).BuildMethod(); err != nil {
		t.Errorf("default method: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	spec := specChain()
	topo, err := spec.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(topo)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := spec.BuildFlows(topo)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.PlanVoIP(flows, core.MethodPathMajor, voip.G711())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(&buf, spec, sys.Frame, plan); err != nil {
		t.Fatal(err)
	}
	sp, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Spec != spec {
		t.Errorf("spec round trip: %+v vs %+v", sp.Spec, spec)
	}
	frame, err := sp.FrameConfig()
	if err != nil {
		t.Fatal(err)
	}
	if frame != sys.Frame {
		t.Errorf("frame round trip: %+v vs %+v", frame, sys.Frame)
	}
	sched, err := sp.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Assignments) != len(plan.Schedule.Assignments) {
		t.Fatalf("assignments = %d, want %d", len(sched.Assignments), len(plan.Schedule.Assignments))
	}
	for i, a := range sched.Assignments {
		if a != plan.Schedule.Assignments[i] {
			t.Errorf("assignment %d: %+v vs %+v", i, a, plan.Schedule.Assignments[i])
		}
	}
	// The loaded schedule still validates against the rebuilt topology.
	if err := sched.Validate(sys.Graph); err != nil {
		t.Errorf("loaded schedule invalid: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"unknown": 1}`)); err == nil {
		t.Error("unknown fields accepted")
	}
	// Bad frame duration is caught at FrameConfig time.
	sp, err := Load(strings.NewReader(`{"spec":{"topology":"chain","nodes":3,"seed":0,"calls":1,"codec":"g711","method":"greedy"},"frame":{"frameDuration":"never","controlSlots":0,"dataSlots":4},"windowSlots":1,"assignments":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.FrameConfig(); err == nil {
		t.Error("bad frame duration accepted")
	}
}

func TestSaveNilPlan(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, specChain(), tdma.DefaultEmulationFrame(), nil); err == nil {
		t.Error("nil plan accepted")
	}
}
