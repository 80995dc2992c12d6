// Command meshsim runs a VoIP-over-mesh simulation under either the
// TDMA-over-WiFi emulation MAC or the 802.11 DCF baseline, and prints
// per-flow delay, loss and E-model quality.
//
// Usage:
//
//	meshsim -mac tdma -topology chain -nodes 6 -calls 4 -duration 10s
//	meshsim -mac dcf  -topology random -nodes 12 -calls 8 -seed 3
//	meshsim -load plan.json -duration 10s      # replay a meshplan -save file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"wimesh/internal/analytic"
	"wimesh/internal/core"
	"wimesh/internal/obs"
	"wimesh/internal/scenario"
	"wimesh/internal/timesync"
	"wimesh/internal/voip"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshsim", flag.ContinueOnError)
	var (
		macKind    = fs.String("mac", "tdma", "MAC: tdma (emulation) or dcf (baseline)")
		topoName   = fs.String("topology", "chain", "topology: chain, ring, grid, tree, random")
		nodes      = fs.Int("nodes", 6, "number of nodes")
		calls      = fs.Int("calls", 2, "number of VoIP calls to the gateway")
		method     = fs.String("method", "path-major", "TDMA scheduler: ilp, minmax-delay, path-major, tree-order, greedy, partitioned")
		codec      = fs.String("codec", "g711", "voice codec: g711, g729, g723")
		duration   = fs.Duration("duration", 10*time.Second, "simulated duration")
		seed       = fs.Int64("seed", 1, "simulation seed")
		withSync   = fs.Bool("sync", false, "enable the clock-error model (tdma only)")
		guard      = fs.Duration("guard", 100*time.Microsecond, "TDMA slot guard interval")
		spurts     = fs.Bool("talkspurt", false, "use on/off talk-spurt sources instead of CBR")
		loadPath   = fs.String("load", "", "replay a plan saved by meshplan -save (tdma only)")
		metricsOut = fs.String("metrics-out", "", "write a JSON counter snapshot to this file after the run")
		tracePath  = fs.String("trace", "", "write a per-slot/per-frame event trace (JSON lines) to this file")
		queueCap   = fs.Int("queue-cap", 0, "finite per-link (tdma) / per-node (dcf) queue depth in packets; 0 keeps the MAC default")
		analyticOn = fs.Bool("analytic", false, "also print the closed-form model's per-flow prediction next to the simulation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// DCF has no schedule, slot guard or clock model: a TDMA-only flag next
	// to an explicit -mac dcf is an error, not silently dropped. Visit sees
	// only flags set on the command line, so defaults never trip this.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"load", "sync", "guard", "method"} {
		if set["mac"] && *macKind == "dcf" && set[name] {
			return fmt.Errorf("-mac dcf with -%s: -%s applies to the TDMA MAC only", name, name)
		}
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration %v: must be positive", *duration)
	}
	if *queueCap < 0 {
		return fmt.Errorf("-queue-cap %d: must not be negative (0 keeps the MAC default)", *queueCap)
	}

	// Observability is opt-in per flag: installing the process defaults here
	// lets the sim kernel, medium and timesync (built deep inside RunTDMA /
	// RunDCF) find the sinks without threading handles through every layer.
	// With both flags unset nothing is installed and the hot paths stay on
	// their nil-sink zero-cost fast path.
	var (
		reg *obs.Registry
		tr  *obs.Trace
	)
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

	var (
		spec  scenario.Spec
		plan  *core.Plan
		saved *scenario.SavedPlan
	)
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		sp, err := scenario.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		saved = sp
		spec = sp.Spec
	} else {
		spec = scenario.Spec{
			Topology: *topoName,
			Nodes:    *nodes,
			Seed:     *seed,
			Calls:    *calls,
			Codec:    *codec,
			Method:   *method,
		}
		spec.DelayBound = (150 * time.Millisecond).String()
	}

	topo, err := spec.BuildTopology()
	if err != nil {
		return err
	}
	sysOpts := []core.Option{}
	if saved != nil {
		frame, err := saved.FrameConfig()
		if err != nil {
			return err
		}
		sysOpts = append(sysOpts, core.WithFrame(frame))
	}
	sys, err := core.NewSystem(topo, sysOpts...)
	if err != nil {
		return err
	}
	sys.MAC.Guard = *guard
	// The flag always carries an explicit value, so -guard 0 must mean a true
	// zero-guard run rather than the 100 us default.
	sys.MAC.GuardSet = true
	cdc, err := spec.BuildCodec()
	if err != nil {
		return err
	}
	flows, err := spec.BuildFlows(topo)
	if err != nil {
		return err
	}
	runCfg := core.RunConfig{Duration: *duration, Codec: cdc, Seed: *seed,
		QueueCap: *queueCap, Metrics: reg, Trace: tr}
	if *spurts {
		runCfg.Mode = voip.ModeTalkSpurt
	}

	var res *core.RunResult
	switch *macKind {
	case "tdma":
		if saved != nil {
			sched, err := saved.Schedule()
			if err != nil {
				return err
			}
			if err := sched.Validate(sys.Graph); err != nil {
				return fmt.Errorf("loaded schedule conflicts with the topology: %w", err)
			}
			plan = &core.Plan{Schedule: sched, WindowSlots: saved.WindowSlots}
			fmt.Fprintf(out, "replaying %s: %d slots\n\n", *loadPath, saved.WindowSlots)
		} else {
			m, err := spec.BuildMethod()
			if err != nil {
				return err
			}
			plan, err = sys.PlanVoIP(flows, m, cdc)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "schedule: %d slots, max scheduling delay %v\n\n",
				plan.WindowSlots, plan.MaxSchedulingDelay)
		}
		if *withSync {
			syncCfg := timesync.DefaultConfig()
			runCfg.Sync = &syncCfg
		}
		res, err = sys.RunTDMA(plan, flows, runCfg)
		if err != nil {
			return err
		}
		if *analyticOn {
			pred, err := sys.AnalyticTDMA(plan, flows, runCfg)
			if err != nil {
				return err
			}
			reportPrediction(out, pred)
		}
	case "dcf":
		res, err = sys.RunDCF(flows, runCfg)
		if err != nil {
			return err
		}
		if *analyticOn {
			pred, err := sys.AnalyticDCF(flows, runCfg)
			if err != nil {
				return err
			}
			reportPrediction(out, pred)
		}
	default:
		return fmt.Errorf("unknown mac %q", *macKind)
	}
	report(out, *macKind, res)
	if reg != nil {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics: %s\n", *metricsOut)
	}
	if tr != nil {
		if err := writeTrace(*tracePath, tr); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %s (%d events, %d dropped)\n",
			*tracePath, len(tr.Events()), tr.Dropped())
	}
	return nil
}

// writeMetrics dumps the registry snapshot as indented JSON.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace dumps the trace ring as JSON lines, oldest first.
func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportPrediction prints the closed-form model's per-flow view in the same
// shape as the simulation report, so the two are eyeball-diffable.
func reportPrediction(out io.Writer, pred analytic.Prediction) {
	fmt.Fprintln(out, "analytic model (closed form, no packets simulated):")
	fmt.Fprintf(out, "%-5s %7s %10s %10s %10s %6s %5s\n",
		"flow", "loss%", "mean", "p95", "max", "R", "MOS")
	for _, f := range pred.Flows {
		fmt.Fprintf(out, "%-5d %7.2f %10v %10v %10v %6.1f %5.2f\n",
			f.FlowID, f.Loss*100,
			f.MeanDelay.Round(time.Microsecond),
			f.P95Delay.Round(time.Microsecond),
			f.MaxDelay.Round(time.Microsecond),
			f.Quality.R, f.Quality.MOS)
	}
	fmt.Fprintf(out, "predicted worst R-factor: %.1f  all-toll-quality: %t  max utilization: %.2f\n\n",
		pred.MinR, pred.AllAcceptable, pred.MaxUtilization)
}

func report(out io.Writer, macKind string, res *core.RunResult) {
	fmt.Fprintf(out, "%-5s %7s %7s %7s %10s %10s %10s %6s %5s\n",
		"flow", "sent", "recv", "loss%", "mean", "p95", "max", "R", "MOS")
	for _, f := range res.Flows {
		fmt.Fprintf(out, "%-5d %7d %7d %7.2f %10v %10v %10v %6.1f %5.2f\n",
			f.FlowID, f.Sent, f.Received, f.Loss*100,
			f.MeanDelay.Round(time.Microsecond),
			f.P95Delay.Round(time.Microsecond),
			f.MaxDelay.Round(time.Microsecond),
			f.Quality.R, f.Quality.MOS)
	}
	fmt.Fprintf(out, "\nworst R-factor: %.1f  all-toll-quality: %t\n", res.MinR, res.AllAcceptable)
	switch macKind {
	case "tdma":
		fmt.Fprintf(out, "mac: %d tx, %d delivered, %d violations, %d queue drops\n",
			res.TDMA.Transmissions, res.TDMA.Delivered, res.TDMA.Violations, res.TDMA.DroppedQueue)
	case "dcf":
		fmt.Fprintf(out, "mac: %d tx, %d delivered, %d collisions, %d retry drops, %d queue drops\n",
			res.DCF.Transmissions, res.DCF.Delivered, res.DCF.Collisions,
			res.DCF.DroppedRetries, res.DCF.DroppedQueue)
	}
}
