package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunTextOutput(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-topology", "chain", "-nodes", "5", "-calls", "2", "-method", "ilp"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"topology: 5 nodes", "method: ilp", "window:", "slot"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-nodes", "4", "-calls", "1", "-json"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["nodes"] != float64(4) {
		t.Errorf("nodes = %v", decoded["nodes"])
	}
	if _, ok := decoded["assignments"]; !ok {
		t.Error("no assignments in JSON")
	}
}

func TestRunAllTopologiesAndMethods(t *testing.T) {
	for _, topo := range []string{"chain", "ring", "grid", "tree", "random"} {
		for _, method := range []string{"path-major", "greedy"} {
			var sb strings.Builder
			err := run([]string{"-topology", topo, "-nodes", "6", "-calls", "1",
				"-method", method, "-seed", "3"}, &sb)
			if err != nil {
				t.Errorf("run(%s, %s): %v", topo, method, err)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-topology", "donut"},
		{"-method", "magic"},
		{"-codec", "mp3"},
		{"-nodes", "1"},
		{"-calls", "-5"}, // used to panic slicing the call sequence
		// Grid and tree used to round these up to a 4-node grid / 3-node tree.
		{"-topology", "grid", "-nodes", "-4"},
		{"-topology", "grid", "-nodes", "0"},
		{"-topology", "tree", "-nodes", "-5"},
		{"-topology", "tree", "-nodes", "0"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestCodecsAccepted(t *testing.T) {
	for _, codec := range []string{"g711", "g729", "g723"} {
		var sb strings.Builder
		if err := run([]string{"-codec", codec, "-nodes", "4", "-calls", "1"}, &sb); err != nil {
			t.Errorf("codec %s: %v", codec, err)
		}
	}
}
