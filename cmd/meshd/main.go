// Command meshd is the serving daemon counterpart of cmd/meshbench's batch
// planner: it keeps one incremental admission engine alive and feeds it a
// deterministic Poisson call workload (exponential holding times, random
// shortest-path routes), admitting and releasing calls one at a time through
// warm-started schedule repair instead of re-planning the mesh per call.
//
// Usage:
//
//	meshd                                   # 24-node village, 200 calls
//	meshd -nodes 96 -calls 1000 -rate 40    # bigger mesh, heavier load
//	meshd -zoned -zone-size 400             # per-zone models (city mode)
//	meshd -zoned -workers 8                 # concurrent admission, sharded by zone
//	meshd -zoned -workers 8 -defrag         # + background solver re-packs
//	meshd -to-gateway                       # all calls route to the gateway
//	meshd -max-window 24                    # tighter admission (more rejects)
//	meshd -metrics-out metrics.json         # dump admit.* counters
//	meshd -class-mix ugs=0.5,rtps=0.2/2,be=0.3 -preempt
//	                                        # mixed service classes, voice may
//	                                        # evict best-effort under overload
//
// The workload is derived purely from the flags (same flags, same calls,
// byte-identical replay at -workers 1); only the latency numbers are
// host-dependent. With -workers > 1 admissions shard by zone and decide
// concurrently — the verdict set matches a serial run, but per-call order
// does not, so an extra "concurrency:" summary line replaces nothing and
// the serial lines keep their format.
// SIGINT/SIGTERM interrupt an in-flight solve, roll the schedule back and
// exit cleanly with the statistics accumulated so far.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wimesh/internal/admit"
	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/partition"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshd", flag.ContinueOnError)
	var (
		nodes       = fs.Int("nodes", 24, "mesh size; nodes are laid out as a 4-wide grid at 100 m spacing")
		calls       = fs.Int("calls", 200, "number of call arrivals to serve")
		rate        = fs.Float64("rate", 20, "Poisson arrival rate in calls per second")
		holding     = fs.Duration("holding", 500*time.Millisecond, "mean exponential call holding time")
		slots       = fs.Int("slots-per-link", 1, "slot demand each call adds on every link of its route")
		seed        = fs.Int64("seed", 42, "workload seed (same flags + seed = byte-identical replay)")
		toGateway   = fs.Bool("to-gateway", false, "route every call to the gateway (node 0) — the WiMAX-mesh base-station pattern; calls drawn at the gateway are dropped")
		frameSlots  = fs.Int("frame-slots", 64, "TDMA data slots per frame")
		maxWindow   = fs.Int("max-window", 0, "serving window cap in slots (0 = whole frame); tighter caps reject more")
		zoned       = fs.Bool("zoned", false, "use per-zone incremental models (city-scale mode)")
		zoneSize    = fs.Float64("zone-size", 0, "zone edge in meters for -zoned (0 = automatic)")
		budget      = fs.Int("budget", 100, "branch-and-bound node budget per admission solve, the only bound on its work (no wall-clock limit); a blown budget falls back to first-fitting the demand in greedy order under the window cap, which admits or rejects conservatively. At 100 the p99 decision latency on 2 vCPUs is ~0.1 s for the default run and ~0.04 s at -max-window 12; at 500 the default run's passes 1 s")
		metricsOut  = fs.String("metrics-out", "", "write the admit.* counter snapshot (JSON) to this file")
		workers     = fs.Int("workers", 1, "admission workers; >1 decides arrivals concurrently, in parallel where they touch disjoint zones (-zoned; a monolithic engine has one zone, so its workers only batch). 1 replays byte-identically run to run")
		defrag      = fs.Bool("defrag", false, "run background solver-driven defragmentation during the replay")
		classMix    = fs.String("class-mix", "", "weighted service-class mix, e.g. ugs=0.5,rtps=0.2/2,nrtps=0.2/2,be=0.1 (class=weight[/slots-per-link]); empty serves pure best-effort calls as before")
		preempt     = fs.Bool("preempt", false, "let guaranteed-class (UGS/rtPS) arrivals evict best-effort and nrtPS calls when every repair tier fails; such an arrival locks every zone while it decides")
		ugsDeadline = fs.Int("ugs-deadline", 0, "per-link slot deadline for aggregate UGS traffic (0 = none)")
		rtpsWindow  = fs.Int("rtps-window", 0, "per-link slot deadline for aggregate UGS+rtPS traffic (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 8 {
		return fmt.Errorf("-nodes %d: need at least 8", *nodes)
	}
	if *calls < 1 {
		return fmt.Errorf("-calls %d: need at least 1", *calls)
	}
	if *holding <= 0 {
		return fmt.Errorf("-holding %v: must be positive", *holding)
	}
	if *frameSlots < 1 {
		return fmt.Errorf("-frame-slots %d: need at least 1", *frameSlots)
	}
	if *slots < 1 || *slots > *frameSlots {
		return fmt.Errorf("-slots-per-link %d: need 1 to %d (the frame's slots)", *slots, *frameSlots)
	}
	if *ugsDeadline < 0 {
		return fmt.Errorf("-ugs-deadline %d: must not be negative (0 = none)", *ugsDeadline)
	}
	if *rtpsWindow < 0 {
		return fmt.Errorf("-rtps-window %d: must not be negative (0 = none)", *rtpsWindow)
	}
	if *ugsDeadline > 0 && *rtpsWindow > 0 && *rtpsWindow < *ugsDeadline {
		return fmt.Errorf("-rtps-window %d: must not be below -ugs-deadline %d", *rtpsWindow, *ugsDeadline)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers %d: need at least 1", *workers)
	}
	if *budget < 1 {
		return fmt.Errorf("-budget %d: need at least 1", *budget)
	}
	if *maxWindow < 0 {
		return fmt.Errorf("-max-window %d: must not be negative (0 = whole frame)", *maxWindow)
	}
	if !(*rate > 0) || math.IsInf(*rate, 1) {
		return fmt.Errorf("-rate %v: must be a positive finite number", *rate)
	}
	if !(*zoneSize >= 0) || math.IsInf(*zoneSize, 1) {
		return fmt.Errorf("-zone-size %v: must be a non-negative finite number (0 = automatic)", *zoneSize)
	}
	mix, err := parseClassMix(*classMix, *frameSlots)
	if err != nil {
		return err
	}
	height := (*nodes + 3) / 4
	topo, err := topology.Grid(4, height, 100)
	if err != nil {
		return err
	}
	frame := tdma.FrameConfig{
		FrameDuration: time.Duration(*frameSlots) * 1250 * time.Microsecond,
		DataSlots:     *frameSlots,
	}
	graph, err := conflict.Build(topo, conflict.Options{Model: conflict.ModelGeometric, InterferenceRange: 250})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	eng, err := admit.New(admit.Config{
		Graph:       graph,
		Frame:       frame,
		MaxWindow:   *maxWindow,
		MILP:        milp.Options{MaxNodes: *budget},
		Zoned:       *zoned,
		ZoneSize:    *zoneSize,
		UGSDeadline: *ugsDeadline,
		RtPSWindow:  *rtpsWindow,
		Preempt:     *preempt,
		Registry:    reg,
	})
	if errors.Is(err, partition.ErrBadZone) {
		return fmt.Errorf("-zone-size %v: %w", *zoneSize, err)
	}
	if err != nil {
		return err
	}
	w, err := admit.Generate(admit.WorkloadConfig{
		Topo: topo, Calls: *calls, ArrivalRate: *rate,
		MeanHolding: *holding, SlotsPerLink: *slots, Seed: *seed,
		ToGateway: *toGateway, ClassMix: mix,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mesh: %d nodes (4x%d grid), %d links, frame %d slots, window cap %d\n",
		topo.NumNodes(), height, topo.NumLinks(), frame.DataSlots, windowCap(*maxWindow, frame.DataSlots))
	fmt.Fprintf(out, "workload: %d calls, %.1f/s arrivals, %v mean holding (%.1f Erlang), seed %d\n",
		*calls, *rate, *holding, w.Erlang, *seed)

	st, serveErr := admit.ServeConcurrent(ctx, eng, w, admit.ServeOptions{Workers: *workers, Defrag: *defrag})
	interrupted := errors.Is(serveErr, context.Canceled) || errors.Is(serveErr, context.DeadlineExceeded)
	if serveErr != nil && !interrupted {
		return serveErr
	}
	if interrupted {
		fmt.Fprintf(out, "interrupted after %d offered calls; schedule rolled back cleanly\n", st.Offered)
	}
	admPerSec := 0.0
	if st.Elapsed > 0 {
		admPerSec = float64(st.Offered) / st.Elapsed.Seconds()
	}
	fmt.Fprintf(out, "served: %d offered, %d admitted, %d rejected in %v (%.0f decisions/s)\n",
		st.Offered, st.Admitted, st.Rejected, st.Elapsed.Round(time.Millisecond), admPerSec)
	fmt.Fprintf(out, "tiers: %d fastpath, %d witness, %d warm, %d cold\n", st.Fast, st.Witness, st.Warm, st.Cold)
	es := eng.Stats()
	fmt.Fprintf(out, "engine: %d releases, %d compactions, %d satisficed; %d live calls, window %d\n",
		es.Releases, es.Compactions, es.Satisficed, eng.NumFlows(), eng.Window())
	if *classMix != "" || *preempt || *ugsDeadline > 0 || *rtpsWindow > 0 {
		// Class line only when a class feature is on, so the default output
		// stays byte-identical release to release.
		fmt.Fprintf(out, "classes: mix %q, ugs deadline %d, rtps window %d; %d preempt attempts, %d preemptive admits, %d calls evicted\n",
			*classMix, *ugsDeadline, *rtpsWindow, es.PreemptAttempts, es.PreemptAdmits, es.PreemptEvicted)
	}
	if *workers > 1 || *defrag {
		// Extra line only off the serial path, so the default -workers 1
		// output stays byte-identical release to release.
		throughput := 0.0
		if st.Wall > 0 {
			throughput = float64(st.Offered) / st.Wall.Seconds()
		}
		fmt.Fprintf(out, "concurrency: %d workers, batch cap %d, %d batched, %d defrag wins (%d slots); wall %v (%.0f adm/s)\n",
			*workers, admit.BatchMax, es.Batched, es.Defrags, es.DefragSlots, st.Wall.Round(time.Millisecond), throughput)
	}
	if st.Latency.Len() > 0 {
		p50, err := st.Latency.Quantile(0.50)
		if err != nil {
			return err
		}
		p99, err := st.Latency.Quantile(0.99)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "decision latency: p50 %.1fus, p99 %.1fus\n", p50*1e6, p99*1e6)
	}
	if *metricsOut != "" {
		buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	return nil
}

// parseClassMix parses the -class-mix syntax: comma-separated
// class=weight[/slots-per-link ≤ frameSlots] shares, e.g. "ugs=0.5,rtps=0.2/2,be=0.3".
// An empty string is a valid empty mix (pure best-effort workload).
func parseClassMix(s string, frameSlots int) ([]admit.ClassShare, error) {
	if s == "" {
		return nil, nil
	}
	var mix []admit.ClassShare
	for _, part := range strings.Split(s, ",") {
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-class-mix %q: want class=weight[/slots-per-link]", part)
		}
		class, err := admit.ParseClass(name)
		if err != nil {
			return nil, fmt.Errorf("-class-mix %q: %w", part, err)
		}
		weightStr, slotsStr, hasSlots := strings.Cut(rest, "/")
		weight, err := strconv.ParseFloat(weightStr, 64)
		// ParseFloat accepts "NaN" and "Inf"; !(weight > 0) also catches NaN.
		if err != nil || !(weight > 0) || math.IsInf(weight, 1) {
			return nil, fmt.Errorf("-class-mix %q: weight %q must be a positive finite number", part, weightStr)
		}
		share := admit.ClassShare{Class: class, Weight: weight}
		if hasSlots {
			spl, err := strconv.Atoi(slotsStr)
			if err != nil || spl < 1 || spl > frameSlots {
				return nil, fmt.Errorf("-class-mix %q: slots-per-link %q must be an integer from 1 to %d (the frame's slots)", part, slotsStr, frameSlots)
			}
			share.SlotsPerLink = spl
		}
		mix = append(mix, share)
	}
	return mix, nil
}

// windowCap resolves the effective serving window for the banner.
func windowCap(maxWindow, frameSlots int) int {
	if maxWindow <= 0 || maxWindow > frameSlots {
		return frameSlots
	}
	return maxWindow
}
