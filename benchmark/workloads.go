package main

// defaultSeconds is BENCHMARK.json's run_seconds: the guard the workloads
// below are sized against.
const defaultSeconds = 12

// workload is one set of inputs the benchmark runs. Params is recorded with
// every result; run builds the inputs from the seed and does the work.
type workload struct {
	Name   string
	Why    string
	Params any
	run    func(rs runSpec) (*outcome, error)
}

// r21Mix is the R21 overload mix: voice, video, bulk data and best effort.
var r21Mix = []classShare{
	{Class: "ugs", Weight: 0.40, SlotsPerLink: 1},
	{Class: "rtps", Weight: 0.25, SlotsPerLink: 2},
	{Class: "nrtps", Weight: 0.20, SlotsPerLink: 2},
	{Class: "be", Weight: 0.15, SlotsPerLink: 1},
}

var (
	villageChurn = servingParams{
		Mesh: "grid3x4", FrameSlots: 256, MaxWindow: 32,
		Rate: 16, HoldingMS: 500, Calls: 400, Episodes: 8, Budget: 8,
	}
	cityChurn = servingParams{
		Mesh: "disk1000", Zoned: true, ZoneSize: 260, FrameSlots: 256, MaxWindow: 32,
		Rate: 30, HoldingMS: 1000, Calls: 150, Episodes: 80, Budget: 30,
	}
	gatewayClasses = servingParams{
		Mesh: "disk1000", Zoned: true, ZoneSize: 260, FrameSlots: 256,
		ToGateway: true, ClassMix: r21Mix, UGSDeadline: 96, RtPSWindow: 192, Preempt: true,
		Rate: 30, HoldingMS: 20000, Calls: 160, Episodes: 80, Budget: 10,
	}
)

var (
	planCity = planParams{
		Mesh: "disk1000", FrameSlots: 256, Flows: 5000,
		ZoneSizes: []float64{0, 260, 520}, Budget: 40, Episodes: 14,
	}
	airTDMA = airParams{Mesh: "grid5x5", MAC: "tdma", Calls: 8, SimSeconds: 40, Runs: 300}
	airDCF  = airParams{Mesh: "grid5x5", MAC: "dcf", Calls: 8, SimSeconds: 5, Runs: 200}

	capacitySearch = capacityParams{
		Topologies: []string{"chain4", "chain6", "grid9", "random12"},
		MaxCalls:   40, RunSeconds: 3, Passes: 130,
	}
)

func serving(name, why string, p servingParams) workload {
	return workload{Name: name, Why: why, Params: p,
		run: func(rs runSpec) (*outcome, error) { return runServing(p, rs) }}
}

// workloads is the benchmark; BENCHMARK.json repeats the names and reasons.
var workloads = []workload{
	serving("village_churn",
		"12-node grid, monolithic engine, tight window: an eighth of decisions leave the fast path and end undecided, so lp/milp/schedule.Incremental do nearly all the work",
		villageChurn),
	serving("city_churn",
		"1000-node city, zoned engine, random routes: the fast path takes 92% of decisions, cold zone rebuilds set the tail and 86% of the wall",
		cityChurn),
	serving("gateway_classes",
		"same city, all calls to the gateway under overload with service classes and preemption: rejection proofs, rollback and class start-caps in every solve",
		gatewayClasses),
	{Name: "plan_city",
		Why:    "offline planning of the same city: conflict.Build, partition.Decompose, a cold schedule.MinSlots per zone, stitch; the solver code of serving, but cold and in batch",
		Params: planCity,
		run:    func(rs runSpec) (*outcome, error) { return runPlan(planCity, rs) }},
	{Name: "air_tdma",
		Why:    "sim kernel, mac.Medium, mac/tdmaemu, timesync and voip scoring with no contention: planned slots played on air under clock error",
		Params: airTDMA,
		run:    func(rs runSpec) (*outcome, error) { return runAir(airTDMA, rs) }},
	{Name: "air_dcf",
		Why:    "the same sim and mac.Medium layers used the other way: carrier sense, backoff, collisions, cancels; a kernel change moves both air workloads, a tdmaemu change only air_tdma",
		Params: airDCF,
		run:    func(rs runSpec) (*outcome, error) { return runAir(airDCF, rs) }},
	{Name: "capacity_search",
		Why:    "the paper's headline result: analytic screen, galloping search and short simulations over R3's four topologies; bypasses admit, partition and the ILP",
		Params: capacitySearch,
		run:    func(rs runSpec) (*outcome, error) { return runCapacity(capacitySearch, rs) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
