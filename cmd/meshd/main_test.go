package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestRunSummary(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "16", "-calls", "40", "-rate", "50", "-holding", "100ms", "-max-window", "32",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"mesh: 16 nodes (4x4 grid)",
		"workload: 40 calls",
		"served: 40 offered",
		"tiers:",
		"engine:",
		"decision latency: p50",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Byte-identity contract: the serial summary must not grow a concurrency
	// line, so -workers 1 replays stay comparable release to release.
	if strings.Contains(out, "concurrency:") {
		t.Errorf("serial run printed a concurrency line:\n%s", out)
	}
}

// TestRunDeterministicWorkload checks the replay guarantee the doc comment
// makes: the same flags print the same workload banner (the served/latency
// lines are wall clock and may differ).
func TestRunDeterministicWorkload(t *testing.T) {
	banner := func() string {
		var sb strings.Builder
		if err := run(context.Background(), []string{
			"-nodes", "12", "-calls", "30", "-rate", "50", "-holding", "80ms",
		}, &sb); err != nil {
			t.Fatalf("run: %v", err)
		}
		lines := strings.SplitN(sb.String(), "\n", 3)
		if len(lines) < 2 {
			t.Fatalf("short output:\n%s", sb.String())
		}
		return lines[0] + "\n" + lines[1]
	}
	if a, b := banner(), banner(); a != b {
		t.Errorf("same flags, different workload banner:\n%s\n---\n%s", a, b)
	}
}

// TestRunInterrupted checks the signal path: a cancelled context must end the
// run cleanly (exit status 0) with the interruption reported, not as an error.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	err := run(ctx, []string{"-nodes", "16", "-calls", "200", "-max-window", "8"}, &sb)
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if !strings.Contains(sb.String(), "interrupted after") {
		t.Errorf("output does not report the interruption:\n%s", sb.String())
	}
}

func TestRunMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "16", "-calls", "40", "-rate", "50", "-holding", "100ms",
		"-max-window", "32", "-metrics-out", path,
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if snap.Counters["admit.fastpath_hit"] == 0 {
		t.Errorf("no admit.fastpath_hit in snapshot (counters: %v)", snap.Counters)
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "4"},
		{"-not-a-flag"},
		{"-workers", "0"},
		{"-class-mix", "voice=1"},
		{"-class-mix", "ugs"},
		{"-class-mix", "ugs=0"},
		{"-class-mix", "ugs=0.5/0"},
	} {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunNonFiniteFlags: strconv.ParseFloat accepts "NaN" and "Inf", so the
// flags that take a float must refuse them by name. An accepted NaN weight
// silently served an all-BE workload and a NaN rate replayed NaN
// inter-arrival times.
func TestRunNonFiniteFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-class-mix", "ugs=NaN,be=1"},
		{"-class-mix", "ugs=Inf"},
		{"-class-mix", "ugs=-Inf"},
		{"-rate", "NaN"},
		{"-rate", "+Inf"},
		{"-rate", "-Inf"},
		{"-rate", "0"},
		{"-budget", "-1"},     // a negative node budget silently rejected every call
		{"-zone-size", "NaN"}, // served every call over a garbage zoning
		{"-zone-size", "+Inf"},
		{"-zone-size", "-1"},
	} {
		var sb strings.Builder
		err := run(context.Background(), []string{tc.flag, tc.value}, &sb)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%s %s: err = %v, want an error naming the flag", tc.flag, tc.value, err)
		}
	}
}

// TestRunOutOfRangeFlags: a -budget of 0 silently became another node
// budget, a negative -max-window silently meant the whole frame, and a zone
// size too small to key the grid served a garbage zoning.
// The workload flags failed deep in the engine or the generator without
// naming the flag, -slots-per-link beyond the frame only after the banner.
// Every one must fail before printing anything.
func TestRunOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-budget", "0"},
		{"-max-window", "-5"},
		// Served over 24 transmitters keyed into 2 zones by an overflowed
		// cell index.
		{"-zone-size", "1e-300", "-zoned"},
		{"-calls", "0"},
		{"-holding", "0s"},
		{"-slots-per-link", "0"},
		{"-slots-per-link", "100"},
		{"-class-mix", "ugs=1/100"},
		{"-frame-slots", "0"},
		{"-ugs-deadline", "-1"},
		{"-rtps-window", "-1"},
		// Failed inside admit.New as a "bad flow", naming no flag.
		{"-ugs-deadline", "10", "-rtps-window", "5"},
	} {
		var sb strings.Builder
		err := run(context.Background(), append([]string{"-calls", "4"}, args...), &sb)
		if err == nil || !strings.Contains(err.Error(), args[0]+" ") {
			t.Errorf("%v: err = %v, want an error naming the flag", args, err)
		}
		if sb.Len() > 0 {
			t.Errorf("%v: printed before failing:\n%s", args, sb.String())
		}
	}
}

// FuzzParseClassMix: whatever the string, an accepted mix has only positive
// finite weights and slots-per-link within the frame — what admit.Generate's
// class draw assumes.
func FuzzParseClassMix(f *testing.F) {
	for _, seed := range []string{"", "ugs=0.5,rtps=0.2/2,be=0.3", "ugs=NaN,be=1", "ugs=Inf", "be=1e309", "ugs=1/0", "ugs", "=1"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		mix, err := parseClassMix(s, 64)
		if err != nil {
			return
		}
		for _, share := range mix {
			if !(share.Weight > 0) || math.IsInf(share.Weight, 0) || share.SlotsPerLink < 0 || share.SlotsPerLink > 64 {
				t.Fatalf("parseClassMix(%q) accepted share %+v", s, share)
			}
		}
	})
}

func TestParseClassMix(t *testing.T) {
	mix, err := parseClassMix("ugs=0.5,rtps=0.2/2,nrtps=0.2/2,be=0.1", 64)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(mix) != 4 {
		t.Fatalf("got %d shares, want 4", len(mix))
	}
	if mix[1].Weight != 0.2 || mix[1].SlotsPerLink != 2 {
		t.Errorf("rtps share: %+v", mix[1])
	}
	if mix[0].SlotsPerLink != 0 {
		t.Errorf("ugs share without /slots should inherit: %+v", mix[0])
	}
	if got, err := parseClassMix("", 64); err != nil || got != nil {
		t.Errorf("empty mix: %v, %v", got, err)
	}
}

// TestRunClassMix drives the mixed-class preemptive path end to end and
// checks the class summary line appears with its eviction counters.
func TestRunClassMix(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "16", "-calls", "40", "-rate", "100", "-holding", "200ms",
		"-frame-slots", "16", "-class-mix", "ugs=0.6,be=0.4", "-preempt",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"served: 40 offered",
		`classes: mix "ugs=0.6,be=0.4", ugs deadline 0, rtps window 0;`,
		"preempt attempts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunToGateway checks the WiMAX-mesh traffic flag: every generated call
// routes to the gateway, and calls drawn at the gateway itself are dropped,
// so the offered count may fall below -calls but the replay still serves.
func TestRunToGateway(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "16", "-calls", "40", "-rate", "50", "-holding", "100ms",
		"-to-gateway",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "served:") || !strings.Contains(out, "admitted") {
		t.Errorf("output missing serving summary:\n%s", out)
	}
	if strings.Contains(out, "served: 0 offered") {
		t.Errorf("gateway-directed workload offered nothing:\n%s", out)
	}
}

// TestRunSharded drives the concurrent serving path end to end: zoned mesh,
// 8 workers, background defrag. The summary gains a concurrency line and the
// verdict counts still reconcile.
func TestRunSharded(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "24", "-calls", "60", "-rate", "100", "-holding", "80ms",
		"-zoned", "-workers", "8", "-defrag", "-max-window", "24",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"served: 60 offered",
		"concurrency: 8 workers, batch cap 16,",
		"defrag wins",
		"adm/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunWorkersAnyEngine pins that -workers is not an engine mode: several
// workers drive a monolithic engine (one zone lock, so they only batch) and a
// preemptive zoned one (an eviction may hit a call another worker owns).
func TestRunWorkersAnyEngine(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "8", "-workers", "4"},
		{"-nodes", "24", "-zoned", "-workers", "4", "-preempt", "-class-mix", "ugs=0.5,be=0.5"},
	} {
		var sb strings.Builder
		args = append([]string{"-calls", "60", "-rate", "100", "-holding", "80ms", "-max-window", "12", "-budget", "20"}, args...)
		if err := run(context.Background(), args, &sb); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		if out := sb.String(); !strings.Contains(out, "served: 60 offered") || !strings.Contains(out, "concurrency: 4 workers") {
			t.Errorf("run %v: output missing the serving or concurrency line:\n%s", args, out)
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/run.golden from this run")

var (
	servedTail  = regexp.MustCompile(`(?m)^(served: .*) in \S+ \(\S+ decisions/s\)$`)
	latencyLine = regexp.MustCompile(`(?m)^decision latency: .*$`)
)

// TestRunGolden pins meshd's output byte for byte on three deterministic
// serial runs (-workers 1): a monolithic engine whose blown node budgets end
// in witness verdicts, a zoned gateway-directed class mix with deadlines and
// preemption, and the default workload under a 12-slot window cap at the
// default node budget. Each run records its stdout with the wall-clock
// fields masked (the served line's "in ... (... decisions/s)" tail and the
// decision latency line) plus the -metrics-out counters. A
// behaviour-preserving change keeps it green without -update-golden.
func TestRunGolden(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{"-nodes", "12", "-calls", "80", "-rate", "50", "-holding", "200ms",
			"-budget", "100", "-max-window", "16"},
		{"-nodes", "48", "-calls", "120", "-zoned", "-zone-size", "250",
			"-budget", "100", "-max-window", "24", "-to-gateway",
			"-class-mix", "ugs=0.4,rtps=0.3/2,be=0.3", "-preempt",
			"-ugs-deadline", "12", "-rtps-window", "20"},
		{"-max-window", "12"},
	} {
		metrics := filepath.Join(t.TempDir(), "metrics.json")
		var out strings.Builder
		if err := run(context.Background(), append(args, "-metrics-out", metrics), &out); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		masked := servedTail.ReplaceAllString(out.String(), "$1 in … (… decisions/s)")
		masked = latencyLine.ReplaceAllString(masked, "decision latency: …")
		fmt.Fprintf(&sb, "$ meshd %s\n%s", strings.Join(args, " "), masked)
		buf, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal(buf, &snap); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "counter %s %d\n", name, snap.Counters[name])
		}
	}

	path := filepath.Join("testdata", "run.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("output differs from %s:\n got\n%s\n want\n%s", path, got, want)
	}
}
