// Command benchmark is the repository's benchmark: seven fixed-work
// workloads over admission serving, offline planning and the simulated data
// plane, driven through the layers' public functions from outside. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload city_churn --seed 42 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload city_churn --seed 42 --seconds 12 --trace 1
//	bash benchmark/run.sh -workload all -seed 42 -out A.json
//	bash benchmark/run.sh -agree A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wimesh/internal/obs"
)

// runSpec is what the command line asks of one workload run.
type runSpec struct {
	seed    int64
	seconds float64
	trace   bool
	tr      *tracer // non-nil exactly when trace is set
}

// guard is the measuring time after which a run stops starting new
// episodes. The workloads are sized to finish well inside it on the
// reference host, so it only cuts work short on a much slower one.
func (rs runSpec) guard() time.Duration {
	return time.Duration(rs.seconds * float64(time.Second))
}

// outcome is what a workload hands back: raw samples and counts, from which
// report derives every end-to-end metric the same way for all workloads.
type outcome struct {
	setups    []time.Duration // one per repetition of the set-up
	ops       []time.Duration // service time of every operation
	responses []time.Duration // completion time of every operation from when it was due
	wall      time.Duration   // wall time of the measured region
	allocated uint64          // bytes allocated in the measured region
	offered   float64         // demand offered, in the workload's own unit
	served    float64         // of which served with its guarantee
	attempted int
	undecided int      // operations the program gave up on (budget rejects, errors)
	failed    int      // operations that returned an error
	gate      []string // correctness-gate misses
	truncated bool     // the guard cut the planned work short
	layers    map[string]float64
}

// planned is how many of a workload's n units (episodes, demand sets,
// simulation runs, search passes) a run does: all of them, or half in a
// traced run, which does them twice.
func (rs runSpec) planned(n int) int {
	if rs.trace {
		return (n + 1) / 2
	}
	return n
}

// subSeed derives the seed of a run's i-th unit.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// fold mixes values into an FNV-style signature.
func fold(h uint64, vs ...int) uint64 {
	for _, v := range vs {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// unit is one independently prepared piece of a workload's work.
type unit interface {
	// wall is the time measured inside the unit.
	wall() time.Duration
	// signature folds every outcome of the unit that fixed work must
	// reproduce: verdicts, tiers, solve counts, plan shapes, counters.
	signature() uint64
}

// passFunc does the first n units of the prepared work, stopping early
// (truncated) once guard has been spent. reg and tr are nil in an untraced
// pass.
type passFunc[U unit] func(n int, guard time.Duration, reg *obs.Registry, tr *tracer) (done []U, truncated bool, err error)

// twoPasses measures a workload. The first pass is untraced and is what an
// untraced run reports. The second is the determinism gate: a tenth of the
// units again, which must reproduce the first pass's signatures. In a traced
// run the second pass repeats all of the first under the tracer and a fresh
// registry (also installed as the process default, which is where milp, sim
// and partition look), and is the one reported, so the two walls compare
// like for like and their difference is the tracing overhead.
func twoPasses[U unit](rs runSpec, out *outcome, units int, pass passFunc[U]) (measured []U, reg *obs.Registry, err error) {
	var first []U
	out.allocated = allocatedDuring(func() { first, out.truncated, err = pass(units, rs.guard(), nil, nil) })
	if err != nil {
		return nil, nil, err
	}
	again := max(1, len(first)/10)
	if rs.trace {
		again = len(first)
		reg = obs.NewRegistry()
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
	}
	second, _, err := pass(again, time.Hour, reg, rs.tr)
	if err != nil {
		return nil, nil, err
	}
	for i, u := range second {
		if u.signature() != first[i].signature() {
			out.gate = append(out.gate, fmt.Sprintf("unit %d: two runs over the same input gave different results", i))
		}
	}
	measured = first
	if rs.trace {
		measured = second
	}
	for _, u := range measured {
		out.wall += u.wall()
	}
	if rs.trace {
		var untraced time.Duration
		for _, u := range first {
			untraced += u.wall()
		}
		out.layers["trace.overhead_frac"] = ratio(float64(out.wall-untraced), float64(untraced))
	}
	return measured, reg, nil
}

// allocatedDuring returns the bytes fn allocated. With one P and fixed work
// the count repeats to a fraction of a percent, which resident-set size,
// moving with the collector's timing, does not.
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// repeatSetup runs build at least three times, and many more while set-up is
// cheap (a sub-millisecond set-up is otherwise all timer noise), so setup_s
// is a median rather than one draw. Only the first repetition is traced; the
// caller keeps what the last one built.
func repeatSetup(rs runSpec, build func(tr *tracer) (time.Duration, error)) ([]time.Duration, error) {
	var all []time.Duration
	var total time.Duration
	for i := 0; i < 3 || (total < 300*time.Millisecond && i < 200); i++ {
		var tr *tracer
		if i == 0 {
			tr = rs.tr
		}
		d, err := build(tr)
		if err != nil {
			return nil, err
		}
		all = append(all, d)
		total += d
	}
	return all, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues derives the end-to-end metrics from an outcome.
func endToEndValues(o *outcome) map[string]float64 {
	tail := tailQuantile(len(o.ops))
	return map[string]float64{
		"setup_s":          quantile(o.setups, 0.5).Seconds(),
		"ops_per_s":        ratio(float64(len(o.ops)), o.wall.Seconds()),
		"op_p50_us":        us(quantile(o.ops, 0.5)),
		"op_tail_us":       us(quantile(o.ops, tail)),
		"response_tail_us": us(quantile(o.responses, tail)),
		"served_frac":      ratio(o.served, o.offered),
		"decided_frac":     1 - ratio(float64(o.undecided), float64(o.attempted)),
		"alloc_kb_per_op":  ratio(float64(o.allocated)/1024, float64(len(o.ops))),
	}
}

// report prints the human-readable account of a run and then the result
// line, and returns whether the run was correct.
func report(w io.Writer, wl workload, rs runSpec, o *outcome) (bool, error) {
	defs, values := endToEnd, endToEndValues(o)
	if rs.trace {
		defs, values = perLayer, o.layers
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", wl.Name, rs.seed, rs.seconds, rs.trace)
	params, err := json.Marshal(wl.Params)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "params %s\n", params)
	fmt.Fprintf(w, "operations %d (tail = p%g), set-ups %d, measured wall %.3f s\n",
		len(o.ops), 100*tailQuantile(len(o.ops)), len(o.setups), o.wall.Seconds())
	if o.truncated {
		fmt.Fprintf(w, "warning: the %g s guard cut the planned work short; counts are not comparable with a full run\n", rs.seconds)
	}
	for _, g := range o.gate {
		fmt.Fprintf(w, "gate: %s\n", g)
	}
	line := resultLine{
		Correct:   len(o.gate) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed + len(o.gate),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\nops_undecided %d\n", line.Attempted, line.Failed, o.undecided)
	fmt.Fprintf(w, "peak_rss_mb %.1f (VmHWM; a metric only of the traced run: it moves 10-20%% with collector timing)\n", peakRSSMiB())
	for _, d := range defs {
		v := values[d.Name]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return line.Correct, err
}

// workloadProcs is the GOMAXPROCS every workload runs under. Each workload
// is one client driving single-threaded solves, and on the two-core
// sandbox this was sized on a second P only adds a concurrent collector
// contending for the same memory: identical village replays took 8.7-10.7 s
// with two Ps and 7.4-7.6 s with one.
const workloadProcs = 1

// runOne runs one workload in this process.
func runOne(wl workload, rs runSpec, spansPath string) (bool, error) {
	runtime.GOMAXPROCS(workloadProcs)
	if rs.trace {
		rs.tr = newTracer()
	}
	o, err := wl.run(rs)
	if err != nil {
		return false, fmt.Errorf("%s: %w", wl.Name, err)
	}
	if rs.trace {
		probeLayers(o.layers, rs)
		o.layers["process.peak_rss_mb"] = peakRSSMiB()
		o.layers["trace.spans"] = float64(len(rs.tr.spans))
		o.layers["trace.harness_self_frac"] = rs.tr.selfShare()
		if err := rs.tr.write(spansPath); err != nil {
			return false, err
		}
	}
	return report(os.Stdout, wl, rs, o)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("correctness gate failed")

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all: every workload, untraced and traced, each in its own process")
		seed    = fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", float64(defaultSeconds), "measuring-time guard per run; the work itself is fixed by the workload")
		trace   = fs.String("trace", "0", "1 runs the traced variant and prints the per-layer metrics instead of the end-to-end ones")
		spans   = fs.String("spans", "", "where a traced run writes its spans as JSON lines (default .bench_build/trace/<workload>.jsonl)")
		out     = fs.String("out", "", "with -workload all: write the combined result set to this file")
		agree   = fs.Bool("agree", false, "compare two result sets written by -out: benchmark -agree A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agree {
		if fs.NArg() != 2 {
			return errors.New("-agree takes two result files")
		}
		return agreeFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		return fmt.Errorf("-trace %q: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %g: want a positive number", *seconds)
	}
	if *name == "all" {
		return runSuite(os.Stdout, *seed, *seconds, *out)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "trace", wl.Name+".jsonl")
	}
	correct, err := runOne(wl, runSpec{seed: *seed, seconds: *seconds, trace: traced}, *spans)
	if err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// peakRSSMiB reads the process's high-water resident set from
// /proc/self/status (0 where that is unavailable).
func peakRSSMiB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64) // 0 on a malformed line
			return kb / 1024
		}
	}
	return 0
}
