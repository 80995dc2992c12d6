package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestOpenLoopBacklog(t *testing.T) {
	msec := time.Millisecond
	// Hand-computed: the 10 ms decision at t=0 delays the arrival due at
	// t=2 by 8 ms; the release due at t=3 waits behind both; the arrival at
	// t=50 finds the server idle.
	work := []served{
		{Due: 0, Service: 10 * msec, Counted: true},         // 0..10, response 10
		{Due: 2 * msec, Service: 4 * msec, Counted: true},   // 10..14, response 12, waited 8
		{Due: 3 * msec, Service: 1 * msec},                  // 14..15, waited 11 (release: not counted)
		{Due: 50 * msec, Service: 5 * msec, Counted: true},  // 50..55, response 5
		{Due: 52 * msec, Service: 20 * msec, Counted: true}, // 55..75, response 23, waited 3
	}
	responses, util, backlog := openLoop(work)
	want := []time.Duration{10 * msec, 12 * msec, 5 * msec, 23 * msec}
	if !slices.Equal(responses, want) {
		t.Errorf("responses = %v, want %v", responses, want)
	}
	if backlog != 11*msec {
		t.Errorf("worst backlog = %v, want 11ms", backlog)
	}
	if wantUtil := 40.0 / 75.0; util < wantUtil-1e-9 || util > wantUtil+1e-9 {
		t.Errorf("utilisation = %v, want %v", util, wantUtil)
	}
	if r, u, b := openLoop(nil); r != nil || u != 0 || b != 0 {
		t.Errorf("openLoop(nil) = %v, %v, %v", r, u, b)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(ds, q); got != want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %d", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it; below forty samples it is the maximum.
func TestTailQuantileGuard(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{12000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90},
		{100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 1}, {3, 1}, {0, 1},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		ds := make([]time.Duration, c.n)
		for i := range ds {
			ds[i] = time.Duration(i + 1)
		}
		if q := tailQuantile(c.n); q < 1 {
			if beyond := c.n - int(quantile(ds, q)); beyond < minTailBeyond {
				t.Errorf("tailQuantile(%d) = %v leaves %d samples beyond, want at least %d", c.n, q, beyond, minTailBeyond)
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in this package must say the same thing, and
// both must stay inside the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(buf))
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", f.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want only benchmark", f.Paths)
	}
	if len(f.Command) == 0 || len(f.Command) > 32 {
		t.Errorf("command has %d strings", len(f.Command))
	}

	if n := len(f.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package (limits 2..8)", n, len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, package has %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q invalid or repeated", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if n := len(f.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the package (limits 1..16)", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, package %+v", i, m, d)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}

	if n := len(f.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the package (limits 1..128)", n, len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, package %+v", i, m, d)
		}
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q invalid or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q invalid", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

func TestGenerateCallsIsAFunctionOfTheSeed(t *testing.T) {
	topo, err := buildMesh("grid3x4")
	if err != nil {
		t.Fatal(err)
	}
	p := servingParams{Mesh: "grid3x4", Rate: 16, HoldingMS: 500, Calls: 50, ToGateway: true, ClassMix: r21Mix}
	a, err := generateCalls(topo, p, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateCalls(topo, p, 7, 0)
	c, _ := generateCalls(topo, p, 8, 0)
	routes := func(evs []callEvent) (s string) {
		arrivals := 0
		for i, ev := range evs {
			if i > 0 && ev.At < evs[i-1].At {
				t.Errorf("event %d out of time order", i)
			}
			if ev.Arrive {
				arrivals++
				s += string(ev.Flow.ID) + ev.Flow.Class.String() + ":"
				for _, l := range ev.Flow.Path {
					s += string(rune('a' + int(l)%26))
				}
			}
		}
		if arrivals != p.Calls {
			t.Errorf("%d arrivals, want exactly %d", arrivals, p.Calls)
		}
		return s
	}
	if routes(a) != routes(b) {
		t.Error("same seed, different calls")
	}
	if routes(a) == routes(c) {
		t.Error("different seeds, same calls")
	}
}

// smoke sizes: every workload's code path, a fraction of a second each.
var (
	smokeVillage = servingParams{Mesh: "grid3x4", FrameSlots: 256, MaxWindow: 32,
		Rate: 16, HoldingMS: 500, Calls: 40, Episodes: 2, Budget: 4}
	smokeCity = servingParams{Mesh: "disk120", Zoned: true, ZoneSize: 260, FrameSlots: 256, MaxWindow: 32,
		Rate: 30, HoldingMS: 1000, Calls: 60, Episodes: 2, Budget: 10}
	smokeGateway = servingParams{Mesh: "disk120", Zoned: true, ZoneSize: 260, FrameSlots: 256,
		ToGateway: true, ClassMix: r21Mix, UGSDeadline: 96, RtPSWindow: 192, Preempt: true,
		Rate: 30, HoldingMS: 2000, Calls: 80, Episodes: 2, Budget: 50}
	smokePlan     = planParams{Mesh: "disk120", FrameSlots: 256, Flows: 300, ZoneSizes: []float64{0, 260, 520}, Budget: 10, Episodes: 2}
	smokeTDMA     = airParams{Mesh: "grid5x5", MAC: "tdma", Calls: 4, SimSeconds: 1, Runs: 10}
	smokeDCF      = airParams{Mesh: "grid5x5", MAC: "dcf", Calls: 4, SimSeconds: 1, Runs: 10}
	smokeCapacity = capacityParams{Topologies: []string{"chain4", "grid9"}, MaxCalls: 6, RunSeconds: 1, Passes: 2}
)

func TestSmokeAllWorkloads(t *testing.T) {
	runs := []struct {
		name string
		run  func(rs runSpec) (*outcome, error)
		// layer metrics that must be non-zero in the traced run
		layers []string
	}{
		{"village_churn", func(rs runSpec) (*outcome, error) { return runServing(smokeVillage, rs) },
			[]string{"topology.links", "conflict.edges", "admit.fast_share", "admit.release_p50_us", "serve.utilisation", "schedule.cold_replan_ms", "schedule.greedy_window"}},
		{"city_churn", func(rs runSpec) (*outcome, error) { return runServing(smokeCity, rs) },
			[]string{"admit.fast_share", "admit.fast_p50_us", "admit.new_ms"}},
		{"gateway_classes", func(rs runSpec) (*outcome, error) { return runServing(smokeGateway, rs) },
			[]string{"admit.reject_share", "admit.preempt_attempts", "milp.warm_solves"}},
		{"plan_city", func(rs runSpec) (*outcome, error) { return runPlan(smokePlan, rs) },
			[]string{"partition.zones", "partition.window_slots", "partition.minslots_260_ms", "partition.decompose_ms"}},
		{"air_tdma", func(rs runSpec) (*outcome, error) { return runAir(smokeTDMA, rs) },
			[]string{"sim.events_executed", "mac.tx_started", "tdmaemu.transmissions", "timesync.resync_rounds", "core.plan_ms", "analytic.predict_us", "voip.min_r"}},
		{"air_dcf", func(rs runSpec) (*outcome, error) { return runAir(smokeDCF, rs) },
			[]string{"sim.events_executed", "dcf.tx_attempts", "sim.speed_x"}},
		{"capacity_search", func(rs runSpec) (*outcome, error) { return runCapacity(smokeCapacity, rs) },
			[]string{"core.probes", "core.full_sims", "core.capacity_calls", "sim.events_executed"}},
	}
	if len(runs) != len(workloads) {
		t.Fatalf("smoke covers %d workloads, the benchmark has %d", len(runs), len(workloads))
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for i, r := range runs {
		if r.name != workloads[i].Name {
			t.Fatalf("smoke %d is %s, workload %d is %s", i, r.name, i, workloads[i].Name)
		}
		t.Run(r.name, func(t *testing.T) {
			o, err := r.run(runSpec{seed: 7, seconds: 60})
			if err != nil {
				t.Fatal(err)
			}
			if len(o.gate) > 0 || o.failed > 0 || o.truncated {
				t.Errorf("untraced: gate %v, failed %d, truncated %v", o.gate, o.failed, o.truncated)
			}
			if o.attempted < 1 || len(o.setups) < 3 || len(o.responses) != len(o.ops) {
				t.Errorf("attempted %d, %d set-ups, %d responses for %d ops", o.attempted, len(o.setups), len(o.responses), len(o.ops))
			}
			for name, v := range endToEndValues(o) {
				if !(v > 0) {
					t.Errorf("end-to-end %s = %v, must never be 0", name, v)
				}
			}

			tr := newTracer()
			o, err = r.run(runSpec{seed: 7, seconds: 60, trace: true, tr: tr})
			if err != nil {
				t.Fatal(err)
			}
			if len(o.gate) > 0 || o.failed > 0 {
				t.Errorf("traced: gate %v, failed %d", o.gate, o.failed)
			}
			for name := range o.layers {
				if !known[name] {
					t.Errorf("layer metric %s is not declared in perLayer", name)
				}
			}
			for _, name := range r.layers {
				if !(o.layers[name] > 0) {
					t.Errorf("layer metric %s = %v, want > 0", name, o.layers[name])
				}
			}
			if len(tr.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			for _, s := range tr.spans {
				if s.End < s.Start || s.Parent >= s.ID || s.Req == "" {
					t.Fatalf("bad span %+v", s)
				}
			}
			if share := tr.selfShare(); share < 0 || share > 1 {
				t.Errorf("harness self share %v outside [0, 1]", share)
			}
		})
	}
}

func TestProbesFillTheirMetrics(t *testing.T) {
	m := map[string]float64{}
	probeLayers(m, runSpec{seed: 7})
	for _, name := range []string{"lp.probe_us", "lp.probe_pivots", "lp.probe_ns_per_pivot",
		"milp.probe_ms", "milp.probe_nodes", "sim.probe_ns_per_event", "mac.probe_ns_per_tx"} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
}

func TestReportPrintsResultLineLast(t *testing.T) {
	o := &outcome{
		setups: []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond},
		ops:    []time.Duration{time.Microsecond, 2 * time.Microsecond}, responses: []time.Duration{time.Microsecond, 2 * time.Microsecond},
		wall: time.Millisecond, allocated: 4096, offered: 2, served: 1, attempted: 2, undecided: 1,
	}
	var buf bytes.Buffer
	correct, err := report(&buf, workloads[0], runSpec{seed: 1, seconds: 1}, o)
	if err != nil || !correct {
		t.Fatalf("report: correct %v, err %v", correct, err)
	}
	line, err := lastLine(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if !strings.Contains(buf.String(), d.Name) || line.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s missing from the report or printed without its unit", d.Name)
		}
	}
	if got := line.Metrics["setup_s"].Value; got != 0.002 {
		t.Errorf("setup_s = %v, want the median 0.002", got)
	}
	if got := line.Metrics["decided_frac"].Value; got != 0.5 {
		t.Errorf("decided_frac = %v, want 0.5", got)
	}

	o.gate = []string{"boom"}
	buf.Reset()
	if correct, _ := report(&buf, workloads[0], runSpec{}, o); correct {
		t.Error("a gate miss must make the run incorrect")
	}
	if line, _ := lastLine(buf.Bytes()); line.Correct || line.Failed != 1 {
		t.Errorf("gate miss: line %+v", line)
	}
}

func TestAgree(t *testing.T) {
	mk := func() suiteFile {
		set := suiteFile{Env: suiteEnv{Seed: 42}, Workloads: map[string]suiteEntry{}}
		for _, wl := range workloads {
			e := suiteEntry{
				EndToEnd: resultLine{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}},
				PerLayer: resultLine{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}},
			}
			for _, d := range endToEnd {
				e.EndToEnd.Metrics[d.Name] = metricValue{Value: 100, Unit: d.Unit}
			}
			for _, d := range perLayer {
				e.PerLayer.Metrics[d.Name] = metricValue{Value: 5, Unit: d.Unit}
			}
			set.Workloads[wl.Name] = e
		}
		return set
	}
	set := func(s suiteFile, wl, metric string, v float64) {
		e := s.Workloads[wl]
		if _, ok := e.EndToEnd.Metrics[metric]; ok {
			e.EndToEnd.Metrics[metric] = metricValue{Value: v}
		} else {
			e.PerLayer.Metrics[metric] = metricValue{Value: v}
		}
	}
	var out bytes.Buffer
	if n := agree(&out, mk(), mk()); n != 0 {
		t.Errorf("identical sets: %d breaches\n%s", n, out.String())
	}
	rows := strings.Count(out.String(), "\n")
	if want := len(workloads) * (2 + len(endToEnd)); rows < want {
		t.Errorf("%d rows, want at least one per workload and end-to-end metric (%d)", rows, want)
	}

	b := mk()
	set(b, "city_churn", "ops_per_s", 110)    // timing within its 25% bound
	set(b, "air_dcf", "sim.ns_per_event", 50) // per-layer timing: never gated
	if n := agree(&out, mk(), b); n != 0 {
		t.Errorf("timings within bound: %d breaches", n)
	}
	set(b, "city_churn", "ops_per_s", 60) // 100/60 - 1 > 25%
	if n := agree(&out, mk(), b); n != 1 {
		t.Errorf("timing beyond bound: %d breaches, want 1", n)
	}
	b = mk()
	set(b, "village_churn", "served_frac", 100.5) // exact end-to-end
	set(b, "plan_city", "milp.nodes", 6)          // exact per-layer count
	if n := agree(&out, mk(), b); n != 2 {
		t.Errorf("exact metrics differ: %d breaches, want 2", n)
	}
	b = mk()
	b.Env.Seed = 7
	if n := agree(&out, mk(), b); n != 1 {
		t.Errorf("different seeds: %d breaches, want 1", n)
	}
}
