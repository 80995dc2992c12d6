GO ?= go

.PHONY: all build test vet race check differential lpdebug examples obs-allocs scale-smoke admit-smoke class-smoke benchmark-smoke loc loc-check goldens profile bench clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# What still runs concurrently must stay race-clean: the partitioned
# planner's zone pool, the sharded admission engine and its serving workers,
# the Problem caches and the parallel experiment runner. The R-table goldens (TestRTableGolden in
# internal/experiments) ride this target in `make check`.
race:
	$(GO) test -race ./...

# The overhauls are pinned to their reference implementations: slab kernel
# vs. heap kernel, dense bitset medium vs. map-based medium, parallel
# meshbench vs. sequential, bounded-variable simplex vs. the dense two-phase
# oracle, the sparse-pattern B^-1 vs. the dense one, warm-started branch-and-bound vs. cold, incremental window
# mutation vs. fresh builds, analytic-screened capacity search vs. the
# linear reference scan, partitioned zone scheduling vs. the monolithic
# ILP (window within 10%, bit-identical at any worker count), admission
# engine verdicts vs. cold schedule.MinSlots re-plans, the one slot packer
# (tdma.Packing) vs. a brute-force earliest-start scan and the two first-fit
# searches it replaced, and the order pass (the paper's Bellman-Ford step)
# vs. a float64 Bellman-Ford and the difference-constraint system it
# solves — all under the race detector.
differential:
	$(GO) test -race -count=1 -run 'TestDifferential|TestPacking|TestWorkersByteIdentical|TestScreenedSearchMatchesLinear|TestAnalyticSearchMatchesLinear|TestAnalyticVsSimulated|TestOrderPassMatchesBellmanFord|TestConstraintSystem|TestPropertySolveSatisfiesConstraints' \
		./internal/sim ./internal/mac ./cmd/meshbench ./internal/core \
		./internal/lp ./internal/milp ./internal/tdma ./internal/schedule \
		./internal/partition ./internal/admit ./internal/conflict

# Re-run the solver packages with the lpdebug build tag: every simplex
# terminates through an invariant check (basis consistency, B^-1 B = I,
# the non-zero pattern covering B^-1 with its exact transpose, primal
# feasibility, dual sign conditions).
lpdebug:
	$(GO) test -count=1 -tags lpdebug ./internal/lp ./internal/milp ./internal/schedule

# Build every example program and smoke-run the quickstart (the fastest
# end-to-end path through the public API). TestExamplesBuild covers the
# builds under plain `go test ./...` too.
examples:
	$(GO) build ./examples/...
	$(GO) test ./examples/ -run TestExamplesBuild -count=1
	$(GO) run ./examples/quickstart > /dev/null

# The observability layer must cost nothing when disabled: nil-sink counter,
# gauge, histogram and trace calls are pinned at 0 allocs/op (and the alloc
# test fails on any regression). The analytic screen rides the same budget:
# a steady-state closed-form probe must not allocate, or screening thousands
# of candidate call counts would feed the GC. So do the slot packer's
# placement queries (FirstFit, FirstGap, Free), which every greedy zone,
# stitch and fastpath admission runs once per block.
obs-allocs:
	$(GO) test ./internal/obs -run 'TestNilSinkZeroAllocs|TestEnabledSinkZeroAllocsSteadyState' -count=1
	$(GO) test ./internal/obs -run xxx -benchmem \
		-bench 'BenchmarkObsNilCounterInc|BenchmarkObsNilTraceEmit'
	$(GO) test ./internal/analytic -run TestPredictZeroAllocsSteadyState -count=1
	$(GO) test ./internal/analytic -run xxx -benchmem \
		-bench 'BenchmarkAnalyticScreen'
	$(GO) test ./internal/tdma -run TestPackingQueriesZeroAllocs -count=1

# A reduced city-scale R18 (200 nodes, 1000 offered flows) through the full
# partitioned pipeline — generate, admit, decompose, zone ILPs, stitch —
# under go vet and the race detector. Fast enough for every push; the full
# sweep lives in `meshbench -only R18`.
scale-smoke:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run TestScaleSmoke ./internal/experiments

# A reduced R19 (village grid + 200-node zoned city) through the full serving
# pipeline — workload generation, three-tier admission, release churn,
# compaction — plus a reduced R20 at workers 1 and 8 (per-zone locking, joint
# batches, concurrent dispatcher), and the engine's own concurrency tests:
# concurrent vs. sequential drivers, the admit/release soaks on zoned and
# monolithic engines, the reader race. All under go vet and the race
# detector. The full sweeps live in `meshbench -only R19` and `-only R20`.
admit-smoke:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run 'TestAdmitSmoke|TestShardSmoke' ./internal/experiments
	$(GO) test -race -count=1 -run 'TestDifferentialShardedVsSerial|TestConcurrent|TestReleaseStorm|TestShardedSnapshotRace|TestDecisionTraceGolden|TestDefragTraceGolden' ./internal/admit

# A reduced R21 (120-node zoned city, mixed UGS/rtPS/nrtPS/BE workload under
# overload) through the class-aware serving pipeline — class deadlines, the
# classed fastpath and solver caps, and preemptive admission with evictions —
# plus the preemption soak (concurrent Admit/AdmitBatch/Release/TryDefrag on
# a zoned preemptive engine with Engine.Check running throughout), rollback
# exactness and multi-worker preemptive serving. All under go vet and the
# race detector. The full sweep lives in `meshbench -only R21`.
class-smoke:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run TestClassSmoke ./internal/experiments
	$(GO) test -race -count=1 -run 'TestPreempt|TestReleaseDuringPreemptTrial|TestServeConcurrentPreempt|TestClassStrictExtension' ./internal/admit

# The repository benchmark (BENCHMARK.json, benchmark/) is its own module, so
# `go test ./...` never sees it: vet it and run its reduced-size workload
# tests here. `bash benchmark/run.sh --workload <name> --seed 42 --seconds 12
# --trace <0|1>` is the real run.
benchmark-smoke:
	(cd benchmark && $(GO) vet . && $(GO) test .)

# Non-test Go lines per package — the number ROADMAP tracks and wants to go
# down. benchmark/ is listed but kept out of the total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; if (d !~ /^\.\/benchmark/) t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total outside benchmark/\n", t }'

# The ratchet on that number: the ceilings are what `make loc` printed when
# they were last edited. A PR that shrinks the code lowers them; one that
# must grow past them raises them in its own diff, where a reviewer sees it.
LOC_MAX_TOTAL = 20205
LOC_MAX_MILP = 515
LOC_MAX_ADMIT = 2213
LOC_MAX_PARTITION = 725
LOC_MAX_SCHEDULE = 1368
LOC_MAX_LP = 1148
LOC_MAX_CORE = 1938

loc-check:
	@$(MAKE) -s loc | awk -v total=$(LOC_MAX_TOTAL) -v milp=$(LOC_MAX_MILP) -v admit=$(LOC_MAX_ADMIT) -v partition=$(LOC_MAX_PARTITION) -v schedule=$(LOC_MAX_SCHEDULE) -v lp=$(LOC_MAX_LP) -v core=$(LOC_MAX_CORE) ' \
		$$2 == "total" && $$1 > total { printf "loc-check: %d non-test lines outside benchmark/, ceiling %d\n", $$1, total; bad = 1 } \
		$$2 == "./internal/milp" && $$1 > milp { printf "loc-check: %d non-test lines in internal/milp, ceiling %d\n", $$1, milp; bad = 1 } \
		$$2 == "./internal/admit" && $$1 > admit { printf "loc-check: %d non-test lines in internal/admit, ceiling %d\n", $$1, admit; bad = 1 } \
		$$2 == "./internal/partition" && $$1 > partition { printf "loc-check: %d non-test lines in internal/partition, ceiling %d\n", $$1, partition; bad = 1 } \
		$$2 == "./internal/schedule" && $$1 > schedule { printf "loc-check: %d non-test lines in internal/schedule, ceiling %d\n", $$1, schedule; bad = 1 } \
		$$2 == "./internal/lp" && $$1 > lp { printf "loc-check: %d non-test lines in internal/lp, ceiling %d\n", $$1, lp; bad = 1 } \
		$$2 == "./internal/core" && $$1 > core { printf "loc-check: %d non-test lines in internal/core, ceiling %d\n", $$1, core; bad = 1 } \
		END { exit bad }'

check: vet build race differential lpdebug examples obs-allocs admit-smoke class-smoke benchmark-smoke loc loc-check

# Re-record internal/experiments/testdata/R<n>.golden after a deliberate
# table change; review the goldens' diff before committing it.
goldens:
	$(GO) test ./internal/experiments -run TestRTableGolden -update-golden

# CPU+heap profile of the scheduler-bound experiments; the top frames should
# be lp.(*Solver) methods.
profile:
	$(GO) run ./cmd/meshbench -only R7 -workers 1 \
		-cpuprofile cpu.prof -memprofile mem.prof
	$(GO) tool pprof -top -nodecount 15 cpu.prof

# Hot-path micro-benchmarks (an order's window and schedule on a
# witness-shaped grid and a 16-hop chain, kernel schedule/cancel, medium
# transmit, DCF saturation, first-fit placement at city conflict degree, schedule
# validation, one greedy and one exact zone solve of the city on its induced
# graph); the kernel, medium and first-fit ones must report 0 allocs/op, and
# the zone solves' B/op is the per-zone allocation.
bench:
	$(GO) test -run xxx -benchmem . \
		-bench 'BenchmarkMinWindowForOrder|BenchmarkOrderToSchedule16Hops|BenchmarkKernelAfterStep|BenchmarkKernelCancel|BenchmarkMediumTransmit|BenchmarkDCFSaturation|BenchmarkPackingFirstFit|BenchmarkScheduleValidate|BenchmarkZoneSolveCity'

clean:
	$(GO) clean ./...
