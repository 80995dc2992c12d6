package main

import (
	"errors"
	"os"
	"strings"
	"testing"

	"wimesh/internal/core"
	"wimesh/internal/scenario"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

func TestRunTDMA(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-mac", "tdma", "-nodes", "4", "-calls", "2",
		"-duration", "2s", "-seed", "1"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"schedule:", "flow", "worst R-factor", "violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTDMAWithSync(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-mac", "tdma", "-nodes", "4", "-calls", "1",
		"-duration", "2s", "-sync", "-guard", "200us"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunDCF(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-mac", "dcf", "-nodes", "4", "-calls", "2",
		"-duration", "2s"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "collisions") {
		t.Errorf("DCF output missing collisions line:\n%s", sb.String())
	}
}

func TestRunTalkspurt(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-mac", "tdma", "-nodes", "4", "-calls", "1",
		"-duration", "2s", "-talkspurt"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadMAC(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mac", "aloha"}, &sb); err == nil {
		t.Error("bad mac accepted")
	}
}

// TestRunRejectsNegativeCalls: a negative call count, from the flag or from
// a plan file, used to panic slicing the call sequence.
func TestRunRejectsNegativeCalls(t *testing.T) {
	path := t.TempDir() + "/plan.json"
	plan := `{"spec":{"topology":"chain","nodes":4,"seed":0,"calls":-5,"codec":"g711","method":"greedy"},` +
		`"frame":{"frameDuration":"10ms","controlSlots":0,"dataSlots":4},"windowSlots":1,"assignments":[]}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-calls", "-5"}, {"-load", path}} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil || !strings.Contains(err.Error(), "-5") {
			t.Errorf("run(%v): err = %v, want an error naming the count", args, err)
		}
	}
}

// TestRunRejectsNegativeRunFlags: -queue-cap -2 used to panic sizing the DCF
// queues (and was silently ignored under tdma), and -duration -1s "succeeded"
// having simulated nothing.
func TestRunRejectsNegativeRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mac", "dcf", "-queue-cap", "-2"},
		{"-mac", "tdma", "-queue-cap", "-2"},
		{"-duration", "-1s"},
	} {
		var sb strings.Builder
		flag := args[len(args)-2]
		if err := run(append(args, "-nodes", "4", "-calls", "1"), &sb); err == nil || !strings.Contains(err.Error(), flag+" ") {
			t.Errorf("run(%v): err = %v, want an error naming %s", args, err, flag)
		}
	}
}

// TestRunRejectsNonPositiveNodes: grid and tree used to round a size below 1
// up to a 4-node grid or a 3-node tree, from the flag or from a plan file.
func TestRunRejectsNonPositiveNodes(t *testing.T) {
	path := t.TempDir() + "/plan.json"
	plan := `{"spec":{"topology":"grid","nodes":-4,"seed":0,"calls":1,"codec":"g711","method":"greedy"},` +
		`"frame":{"frameDuration":"10ms","controlSlots":0,"dataSlots":4},"windowSlots":1,"assignments":[]}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-topology", "grid", "-nodes", "-4"},
		{"-topology", "tree", "-nodes", "0"},
		{"-load", path},
	} {
		var sb strings.Builder
		if err := run(append(args, "-calls", "1", "-duration", "1s"), &sb); !errors.Is(err, topology.ErrBadParameter) {
			t.Errorf("run(%v): err = %v, want ErrBadParameter", args, err)
		}
	}
}

func TestRunLoadRoundTrip(t *testing.T) {
	// Produce a plan file the way meshplan -save does, then replay it.
	dir := t.TempDir()
	path := dir + "/plan.json"
	spec := scenario.Spec{Topology: "chain", Nodes: 4, Calls: 2,
		Codec: "g711", DelayBound: "150ms", Method: "path-major"}
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
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Save(f, spec, sys.Frame, plan); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var sb strings.Builder
	if err := run([]string{"-load", path, "-duration", "2s"}, &sb); err != nil {
		t.Fatalf("meshsim -load: %v", err)
	}
	if !strings.Contains(sb.String(), "replaying") {
		t.Errorf("output missing replay banner:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "all-toll-quality: true") {
		t.Errorf("replayed run not acceptable:\n%s", sb.String())
	}
}
