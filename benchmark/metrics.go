package main

import (
	"math"
	"slices"
	"time"
)

// metricDef declares one benchmark metric. The end-to-end and per-layer
// tables below are the single source of the names, units and bounds;
// BENCHMARK.json repeats them for the driver and a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a count of deterministic work, or a share of such counts:
	// two runs of one commit on one seed must print the same value.
	Exact bool
}

// Every workload prints every end-to-end metric, so each is defined in terms
// of the workload's unit operation (see the workload table in README.md):
// one admission decision, one partitioned plan, one simulation run, one
// capacity search.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "response_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "served_frac", Unit: "ratio", Better: "higher", Bound: 0.15, Exact: true},
	{Name: "decided_frac", Unit: "ratio", Better: "higher", Bound: 0.1, Exact: true},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's metrics, layer = module name. A metric of
// a layer the workload never enters reads 0.
var perLayer = []metricDef{
	// Set-up, by the layer that does it.
	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.links", Unit: "count", Better: "lower", Exact: true},
	{Name: "conflict.build_ms", Unit: "ms", Better: "lower"},
	{Name: "conflict.edges", Unit: "count", Better: "lower", Exact: true},
	{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "admit.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.newsystem_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	// Admission tiers: share of decisions, median and busy time per tier.
	{Name: "admit.fast_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "admit.fast_p50_us", Unit: "us", Better: "lower"},
	{Name: "admit.fast_busy_s", Unit: "s", Better: "lower"},
	{Name: "admit.warm_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "admit.warm_p50_us", Unit: "us", Better: "lower"},
	{Name: "admit.warm_busy_s", Unit: "s", Better: "lower"},
	{Name: "admit.memo_hit_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "admit.cold_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "admit.cold_p50_us", Unit: "us", Better: "lower"},
	{Name: "admit.cold_mean_us", Unit: "us", Better: "lower"},
	{Name: "admit.cold_busy_s", Unit: "s", Better: "lower"},
	{Name: "admit.satisficed", Unit: "count", Better: "lower", Exact: true},
	{Name: "admit.zone_greedy", Unit: "count", Better: "lower", Exact: true},
	{Name: "admit.reject_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "admit.reject_busy_s", Unit: "s", Better: "lower"},
	{Name: "admit.budget_rejects", Unit: "count", Better: "lower", Exact: true},
	{Name: "admit.preempt_attempts", Unit: "count", Better: "lower", Exact: true},
	{Name: "admit.preempt_admits", Unit: "count", Better: "higher", Exact: true},
	{Name: "admit.preempt_evicted", Unit: "count", Better: "lower", Exact: true},
	{Name: "admit.preempt_success_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "admit.release_p50_us", Unit: "us", Better: "lower"},
	{Name: "admit.release_p99_us", Unit: "us", Better: "lower"},
	{Name: "admit.release_busy_s", Unit: "s", Better: "lower"},
	{Name: "admit.compactions", Unit: "count", Better: "lower", Exact: true},
	{Name: "admit.solves_per_slow_decision", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "admit.pivots_per_slow_decision", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "admit.window_final", Unit: "slots", Better: "lower", Exact: true},
	{Name: "admit.slow_busy_share", Unit: "ratio", Better: "lower"},
	// Open-loop view of the traced serving replay.
	{Name: "serve.utilisation", Unit: "ratio", Better: "lower"},
	{Name: "serve.worst_backlog_us", Unit: "us", Better: "lower"},
	// Solver work, counted by the layers' own obs counters.
	{Name: "milp.solves", Unit: "count", Better: "lower", Exact: true},
	{Name: "milp.nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "milp.warm_solves", Unit: "count", Better: "lower", Exact: true},
	{Name: "milp.cold_solves", Unit: "count", Better: "lower", Exact: true},
	{Name: "milp.nodes_per_solve", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "lp.pivots", Unit: "count", Better: "lower", Exact: true},
	{Name: "lp.pivots_per_node", Unit: "ratio", Better: "lower", Exact: true},
	// Direct timed calls into layers that cannot be timed inside another
	// layer's call from outside.
	{Name: "lp.probe_us", Unit: "us", Better: "lower"},
	{Name: "lp.probe_pivots", Unit: "count", Better: "lower", Exact: true},
	{Name: "lp.probe_ns_per_pivot", Unit: "ns", Better: "lower"},
	{Name: "milp.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "milp.probe_nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "schedule.cold_replan_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.greedy_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.ilp_window", Unit: "slots", Better: "lower", Exact: true},
	{Name: "schedule.greedy_window", Unit: "slots", Better: "lower", Exact: true},
	{Name: "sim.probe_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "mac.probe_ns_per_tx", Unit: "ns", Better: "lower"},
	// Offline planning.
	{Name: "partition.decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.minslots_auto_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.minslots_260_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.minslots_520_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.zones", Unit: "count", Better: "lower", Exact: true},
	{Name: "partition.halo_links", Unit: "count", Better: "lower", Exact: true},
	{Name: "partition.zone_ilps", Unit: "count", Better: "lower", Exact: true},
	{Name: "partition.stitch_repairs", Unit: "count", Better: "lower", Exact: true},
	{Name: "partition.greedy_fallback_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "partition.window_slots", Unit: "slots", Better: "lower", Exact: true},
	// Simulated data plane.
	{Name: "sim.events_executed", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.events_canceled", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_sim_s", Unit: "1/s", Better: "lower", Exact: true},
	{Name: "sim.speed_x", Unit: "ratio", Better: "higher"},
	{Name: "mac.tx_started", Unit: "count", Better: "lower", Exact: true},
	{Name: "mac.tx_delivered", Unit: "count", Better: "higher", Exact: true},
	{Name: "mac.tx_collided", Unit: "count", Better: "lower", Exact: true},
	{Name: "mac.tx_per_sim_s", Unit: "1/s", Better: "lower", Exact: true},
	{Name: "tdmaemu.transmissions", Unit: "count", Better: "lower", Exact: true},
	{Name: "tdmaemu.slots_served", Unit: "count", Better: "lower", Exact: true},
	{Name: "tdmaemu.violations", Unit: "count", Better: "lower", Exact: true},
	{Name: "tdmaemu.guard_overruns", Unit: "count", Better: "lower", Exact: true},
	{Name: "dcf.tx_attempts", Unit: "count", Better: "lower", Exact: true},
	{Name: "dcf.collisions", Unit: "count", Better: "lower", Exact: true},
	{Name: "dcf.retry_drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "dcf.collision_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "timesync.resync_rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "voip.min_r", Unit: "R", Better: "higher", Exact: true},
	// Capacity search.
	{Name: "core.probes", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.screen_hit_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "core.full_sims", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.capacity_calls", Unit: "calls", Better: "higher", Exact: true},
	{Name: "analytic.predict_us", Unit: "us", Better: "lower"},
	// The traced process and the trace itself.
	{Name: "process.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.harness_self_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// minTailBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer and the figure is one or two outliers, not a tail.
const minTailBeyond = 10

// tailLadder, in percent, is tried from the top; the first percentile with
// at least minTailBeyond samples beyond it is the workload's tail. Below the
// last rung the tail is the slowest operation.
var tailLadder = []int{99, 95, 90, 75}

// tailQuantile picks the reported tail percentile for n samples; 1 means
// the maximum.
func tailQuantile(n int) float64 {
	for _, pct := range tailLadder {
		if n*(100-pct) >= minTailBeyond*100 {
			return float64(pct) / 100
		}
	}
	return 1
}

// quantile returns the nearest-rank q-quantile of ds (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1 // 0.9*100 is a hair over 90
	return s[min(max(i, 0), len(s)-1)]
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// served is one unit of work offered to a single server: due at Due, taking
// Service once started. Counted marks the operations whose response time is
// reported; the rest (call releases) only occupy the server.
type served struct {
	Due     time.Duration
	Service time.Duration
	Counted bool
}

// openLoop plays the measured service times against the workload's own
// arrival times through one FIFO server without sleeping: start = max(due,
// previous finish). It returns the response time (finish - due) of every
// counted operation, the server's utilisation over the span it was offered
// work, and the worst wait before service started.
func openLoop(work []served) (responses []time.Duration, utilisation float64, worstBacklog time.Duration) {
	if len(work) == 0 {
		return nil, 0, 0
	}
	var finish, busy time.Duration
	for _, w := range work {
		start := max(w.Due, finish)
		worstBacklog = max(worstBacklog, start-w.Due)
		finish = start + w.Service
		busy += w.Service
		if w.Counted {
			responses = append(responses, finish-w.Due)
		}
	}
	return responses, ratio(float64(busy), float64(finish-work[0].Due)), worstBacklog
}
