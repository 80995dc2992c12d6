// Command meshbench regenerates the paper's evaluation: every reconstructed
// experiment in the internal/experiments registry (indexed in DESIGN.md),
// printed as aligned tables.
//
// Usage:
//
//	meshbench                          # run everything
//	meshbench -only R3                 # one experiment
//	meshbench -only R3,R4,R8           # a subset
//	meshbench -list                    # list experiments
//	meshbench -workers 1               # sequential (output is byte-identical)
//	meshbench -csv                     # machine-readable tables
//	meshbench -only R7 -cpuprofile cpu.prof -memprofile mem.prof
//	meshbench -only R6 -metrics-out metrics.json -trace trace.jsonl
//
// Experiments (and their scenario points) are independent deterministic
// simulations, so -workers changes wall-clock only: tables are collected
// concurrently but rendered in canonical order, and every number is
// bit-identical to a -workers=1 run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wimesh/internal/experiments"
	"wimesh/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		os.Exit(1)
	}
}

// metricsReport is the -metrics-out output: one obs counter snapshot per
// experiment, keyed by experiment ID (the registry is reset between
// experiments, so each snapshot is self-contained).
type metricsReport struct {
	Generated   string                  `json:"generated"`
	Experiments map[string]obs.Snapshot `json:"experiments"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	var (
		only       = fs.String("only", "", "run a subset of experiments, comma-separated (e.g. R3 or R3,R4)")
		list       = fs.Bool("list", false, "list experiments and exit")
		csvOut     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "how many experiments/scenario points run concurrently; 1 = sequential (results are bit-identical either way)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf    = fs.String("memprofile", "", "write an allocation profile taken after the run to this file")
		metricsOut = fs.String("metrics-out", "", "write per-experiment obs counter snapshots (JSON) to this file; forces -workers 1")
		tracePath  = fs.String("trace", "", "write a per-slot/per-frame event trace (JSON lines) to this file; forces -workers 1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Observability sinks are process-global (the sim kernels deep inside each
	// experiment find them via obs.Default), so enabling either flag forces a
	// sequential run: with concurrent experiments the counters could not be
	// attributed to one experiment. With both flags unset nothing is installed
	// and the hot paths keep their nil-sink zero-cost fast path — tables stay
	// byte-identical to an uninstrumented run either way, because observation
	// never perturbs simulation state.
	var (
		reg *obs.Registry
		tr  *obs.Trace
	)
	if *metricsOut != "" || *tracePath != "" {
		if *workers != 1 {
			fmt.Fprintf(os.Stderr, "meshbench: -workers %d overridden to 1: -metrics-out/-trace need sequential runs to attribute events per experiment\n", *workers)
		}
		*workers = 1
		if *metricsOut != "" {
			reg = obs.NewRegistry()
			obs.SetDefault(reg)
			defer obs.SetDefault(nil)
		}
		if *tracePath != "" {
			tr = obs.NewTrace(obs.DefaultTraceCap)
			obs.SetDefaultTrace(tr)
			defer obs.SetDefaultTrace(nil)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle live objects so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "meshbench: memprofile:", err)
			}
			f.Close()
		}()
	}
	experiments.SetWorkers(*workers)
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(out, "%-3s %s\n", id, experiments.Title(id))
		}
		return nil
	}
	render := func(t *experiments.Table) error {
		if *csvOut {
			return t.WriteCSV(out)
		}
		t.Fprint(out)
		return nil
	}
	ids := experiments.IDs()
	if *only != "" {
		valid := make(map[string]bool, len(ids))
		for _, id := range ids {
			valid[id] = true
		}
		ids = nil
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			id = strings.ToUpper(id)
			if !valid[id] {
				return fmt.Errorf("-only: unknown experiment %q (valid: %s)",
					id, strings.Join(experiments.IDs(), ", "))
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return fmt.Errorf("-only: no experiment ids in %q (valid: %s)",
				*only, strings.Join(experiments.IDs(), ", "))
		}
	}
	// Run experiments concurrently, then render in canonical order — the
	// sequential and parallel paths produce byte-identical output.
	type result struct {
		table *experiments.Table
		err   error
	}
	results := make([]result, len(ids))
	metrics := metricsReport{Experiments: make(map[string]obs.Snapshot)}
	runOne := func(i int) {
		if tr != nil {
			// A mark separates each experiment's events in the shared trace.
			tr.Emit(obs.Event{Kind: obs.KindMark, Node: -1, Link: -1, Slot: -1,
				Frame: -1, Label: ids[i]})
		}
		results[i].table, results[i].err = experiments.ByID(ids[i])
		if reg != nil {
			// Scope the snapshot to this experiment (the run is sequential
			// whenever reg is installed); Reset keeps live handles valid.
			metrics.Experiments[ids[i]] = reg.Snapshot()
			reg.Reset()
		}
	}
	if w := min(*workers, len(ids)); w > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ids) {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range ids {
			runOne(i)
		}
	}
	// One failed experiment must not discard the completed ones: render every
	// success, record every failure, write the (partial) reports, and only
	// then exit nonzero naming all the failures.
	var failures []failure
	for i, r := range results {
		if r.err != nil {
			failures = append(failures, failure{ID: ids[i], Err: r.err})
			continue
		}
		if err := render(r.table); err != nil {
			return err
		}
	}
	if reg != nil {
		metrics.Generated = time.Now().UTC().Format(time.RFC3339)
		buf, err := json.MarshalIndent(&metrics, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if tr != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return failuresError(failures)
}

// failure records one experiment that errored.
type failure struct {
	ID  string
	Err error
}

// failuresError folds the failed experiments into one error naming each, or
// nil when everything succeeded.
func failuresError(failures []failure) error {
	if len(failures) == 0 {
		return nil
	}
	parts := make([]string, len(failures))
	for i, f := range failures {
		parts[i] = fmt.Sprintf("%s: %v", f.ID, f.Err)
	}
	return fmt.Errorf("%d experiment(s) failed: %s", len(failures), strings.Join(parts, "; "))
}
