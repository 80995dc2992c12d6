package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wimesh/internal/core"
	"wimesh/internal/obs"
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

// TestRunMetricsAndTrace pins the one observability route: -metrics-out and
// -trace install the process defaults, and the MAC, the kernel and the clock
// model built deep inside the run report their counters and events to them.
func TestRunMetricsAndTrace(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		counters []string
		kinds    []string
	}{
		{[]string{"-mac", "tdma", "-sync"},
			[]string{"tdmaemu.slots_served", "tdmaemu.transmissions", "sim.events_executed", "timesync.resync_rounds"},
			[]string{"slot_start", "tx", "resync"}},
		{[]string{"-mac", "dcf"},
			[]string{"dcf.tx_attempts", "mac.tx_started", "sim.events_executed"},
			[]string{"tx_attempt", "tx"}},
	} {
		t.Run(tc.args[1], func(t *testing.T) {
			dir := t.TempDir()
			metrics, trace := filepath.Join(dir, "metrics.json"), filepath.Join(dir, "trace.jsonl")
			var sb strings.Builder
			args := append(tc.args, "-nodes", "4", "-calls", "2", "-duration", "2s",
				"-metrics-out", metrics, "-trace", trace)
			if err := run(args, &sb); err != nil {
				t.Fatalf("run: %v", err)
			}
			buf, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var snap obs.Snapshot
			if err := json.Unmarshal(buf, &snap); err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.counters {
				if snap.Counters[name] == 0 {
					t.Errorf("counter %s = 0 or missing in %s", name, buf)
				}
			}
			f, err := os.Open(trace)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			seen := map[string]int{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var ev struct {
					Kind string `json:"kind"`
				}
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatalf("trace line %q: %v", sc.Text(), err)
				}
				seen[ev.Kind]++
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			for _, kind := range tc.kinds {
				if seen[kind] == 0 {
					t.Errorf("no %s event in the trace (kinds %v)", kind, seen)
				}
			}
		})
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
// queues (and was silently ignored under tdma), -duration -1s "succeeded"
// having simulated nothing, and -duration 0s simulated the 10 s default.
func TestRunRejectsNegativeRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mac", "dcf", "-queue-cap", "-2"},
		{"-mac", "tdma", "-queue-cap", "-2"},
		{"-duration", "-1s"},
		{"-duration", "0s"}, // RunConfig's default silently simulated 10 s
	} {
		var sb strings.Builder
		flag := args[len(args)-2]
		if err := run(append(args, "-nodes", "4", "-calls", "1"), &sb); err == nil || !strings.Contains(err.Error(), flag+" ") {
			t.Errorf("run(%v): err = %v, want an error naming %s", args, err, flag)
		}
	}
}

// TestRunRejectsTDMAOnlyFlagsUnderDCF: -mac dcf used to run TDMA under -load
// and to drop -sync, -guard and -method without a word. An explicit -mac dcf
// next to any of them is an error naming both flags; the defaults never trip
// it.
func TestRunRejectsTDMAOnlyFlagsUnderDCF(t *testing.T) {
	for _, args := range [][]string{
		{"-load", savePlan(t)},
		{"-sync"},
		{"-guard", "1ms"},
		{"-method", "greedy"},
	} {
		var sb strings.Builder
		err := run(append([]string{"-mac", "dcf", "-nodes", "4", "-calls", "1", "-duration", "1s"}, args...), &sb)
		if err == nil || !strings.Contains(err.Error(), "-mac dcf") || !strings.Contains(err.Error(), args[0]+":") {
			t.Errorf("run(-mac dcf %v): err = %v, want an error naming -mac dcf and %s", args, err, args[0])
		}
	}
	var sb strings.Builder
	if err := run([]string{"-mac", "dcf", "-nodes", "4", "-calls", "1", "-duration", "1s"}, &sb); err != nil {
		t.Errorf("run(-mac dcf) with TDMA flags at their defaults: %v", err)
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

// savePlan writes a 4-node chain plan the way meshplan -save does and
// returns its path.
func savePlan(t *testing.T) string {
	t.Helper()
	path := t.TempDir() + "/plan.json"
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
	return path
}

func TestRunLoadRoundTrip(t *testing.T) {
	path := savePlan(t)
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
