package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wimesh/internal/experiments"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	ids := experiments.IDs()
	if len(lines) != len(ids) {
		t.Fatalf("-list printed %d lines, want one per experiment (%d):\n%s", len(lines), len(ids), sb.String())
	}
	for i, id := range ids {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != id {
			t.Errorf("-list line %d = %q, want %s and its title", i, lines[i], id)
		}
	}
}

// TestDocsIndexEveryExperiment keeps the two hand-written indexes in step
// with the registry: DESIGN.md's experiment index needs a table row, and
// EXPERIMENTS.md a section, for every registered experiment.
func TestDocsIndexEveryExperiment(t *testing.T) {
	for _, doc := range []struct{ file, format string }{
		{"DESIGN.md", "\n| %s |"},
		{"EXPERIMENTS.md", "\n## %s —"},
	} {
		buf, err := os.ReadFile(filepath.Join("..", "..", doc.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range experiments.IDs() {
			if want := fmt.Sprintf(doc.format, id); !strings.Contains(string(buf), want) {
				t.Errorf("%s has no %q entry", doc.file, strings.TrimSpace(want))
			}
		}
	}
}

func TestRunOnly(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "R5"}, &sb); err != nil {
		t.Fatalf("run -only R5: %v", err)
	}
	if !strings.Contains(sb.String(), "== R5:") {
		t.Errorf("output missing R5 header:\n%s", sb.String())
	}
}

func TestRunOnlyUnknown(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-only", "R42"}, &sb)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error must name the bad id and list the valid ones, and the
	// validation must fire before any experiment runs.
	for _, want := range []string{"R42", "R1", "R17"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if sb.Len() != 0 {
		t.Errorf("experiments ran before validation: %q", sb.String())
	}
}

func TestRunOnlyEmpty(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", " , "}, &sb); err == nil {
		t.Error("empty -only list accepted")
	}
}

func TestRunOnlyLowercase(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "r5"}, &sb); err != nil {
		t.Fatalf("run -only r5: %v", err)
	}
	if !strings.Contains(sb.String(), "== R5:") {
		t.Errorf("output missing R5 header:\n%s", sb.String())
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "R5", "-csv"}, &sb); err != nil {
		t.Fatalf("run -csv: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "R5,") {
		t.Errorf("csv row = %q", lines[1])
	}
}

// TestWorkersByteIdentical checks the headline determinism guarantee: the
// table output with -workers=N is byte-identical to -workers=1. R7 is
// excluded because its cells are measured scheduler wall-clock times, which
// vary run to run by construction; every other experiment reports only
// simulation results, which are deterministic per seed.
func TestWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-second experiment subset")
	}
	// A representative subset spanning the data planes: DCF saturation,
	// sync-error emulation, native-vs-emulated, hidden terminal, delay table.
	const subset = "R4,R6,R8,R10,R14"
	var seq strings.Builder
	if err := run([]string{"-only", subset, "-workers", "1"}, &seq); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	var par strings.Builder
	if err := run([]string{"-only", subset, "-workers", "8"}, &par); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if seq.String() != par.String() {
		t.Errorf("-workers=8 output differs from -workers=1:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.String(), par.String())
	}
}

// TestOnlyCommaSeparated checks -only accepts a subset list and preserves
// the requested order.
func TestOnlyCommaSeparated(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "R5, R10", "-workers", "1"}, &sb); err != nil {
		t.Fatalf("run -only R5,R10: %v", err)
	}
	out := sb.String()
	i5 := strings.Index(out, "== R5:")
	i10 := strings.Index(out, "== R10:")
	if i5 < 0 || i10 < 0 || i5 > i10 {
		t.Errorf("subset output wrong (R5 at %d, R10 at %d):\n%s", i5, i10, out)
	}
}

func TestFailuresError(t *testing.T) {
	if err := failuresError(nil); err != nil {
		t.Errorf("no failures produced error %v", err)
	}
	err := failuresError([]failure{
		{ID: "R3", Err: errors.New("boom")},
		{ID: "R7", Err: errors.New("bang")},
	})
	if err == nil {
		t.Fatal("failures produced nil error")
	}
	for _, want := range []string{"2 experiment(s) failed", "R3: boom", "R7: bang"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestRunMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "metrics.json")
	tPath := filepath.Join(dir, "trace.jsonl")
	var sb strings.Builder
	if err := run([]string{"-only", "R6", "-metrics-out", mPath, "-trace", tPath}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "== R6:") {
		t.Errorf("table output missing R6 header:\n%s", sb.String())
	}
	buf, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var mr metricsReport
	if err := json.Unmarshal(buf, &mr); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	snap, ok := mr.Experiments["R6"]
	if !ok {
		t.Fatalf("metrics missing R6 snapshot (keys: %v)", len(mr.Experiments))
	}
	// R6 drives the emulation MAC with sync error, so the tdmaemu counters
	// must be populated, including guard overruns at the 200us error points.
	if snap.Counters["tdmaemu.slots_served"] == 0 {
		t.Error("R6 snapshot has no tdmaemu.slots_served")
	}
	if snap.Counters["tdmaemu.guard_overruns"] == 0 {
		t.Error("R6 snapshot has no tdmaemu.guard_overruns")
	}
	tb, err := os.ReadFile(tPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(tb), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty trace")
	}
	kinds := map[string]bool{}
	for _, ln := range lines {
		var ev struct {
			Kind  string `json:"kind"`
			Label string `json:"label"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line not valid JSON: %v\n%s", err, ln)
		}
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"slot_start", "tx"} {
		if !kinds[want] {
			t.Errorf("trace has no %s events (kinds: %v)", want, kinds)
		}
	}
}
