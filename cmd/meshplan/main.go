// Command meshplan computes a conflict-free, delay-aware TDMA schedule for a
// mesh topology carrying VoIP calls to the gateway, and prints it.
//
// Usage:
//
//	meshplan -topology chain -nodes 6 -calls 4 -method ilp -codec g729
//	meshplan -topology grid -nodes 9 -calls 5 -save plan.json
//
// Topologies: chain, ring, grid (square), tree (binary), random.
// Methods: ilp, minmax-delay, path-major, tree-order, greedy, partitioned
// (spatial zones with parallel per-zone ILPs; see README "Scaling").
// A saved plan can be replayed with meshsim -load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/scenario"
	"wimesh/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshplan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshplan", flag.ContinueOnError)
	var (
		topoName = fs.String("topology", "chain", "topology: chain, ring, grid, tree, random")
		nodes    = fs.Int("nodes", 6, "number of nodes (grid uses the nearest square, tree rounds to a full binary tree)")
		calls    = fs.Int("calls", 2, "number of VoIP calls to the gateway")
		method   = fs.String("method", "path-major", "scheduler: ilp, minmax-delay, path-major, tree-order, greedy, partitioned")
		codec    = fs.String("codec", "g711", "voice codec: g711, g729, g723")
		bound    = fs.Duration("delay-bound", 150*time.Millisecond, "per-call delay bound (0 = none; negative is an error)")
		seed     = fs.Int64("seed", 1, "random topology seed")
		asJSON   = fs.Bool("json", false, "emit a JSON report instead of text")
		savePath = fs.String("save", "", "write a replayable plan file (meshsim -load)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := scenario.Spec{
		Topology:   *topoName,
		Nodes:      *nodes,
		Seed:       *seed,
		Calls:      *calls,
		Codec:      *codec,
		DelayBound: bound.String(),
		Method:     *method,
	}
	topo, err := spec.BuildTopology()
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(topo)
	if err != nil {
		return err
	}
	cdc, err := spec.BuildCodec()
	if err != nil {
		return err
	}
	m, err := spec.BuildMethod()
	if err != nil {
		return err
	}
	flows, err := spec.BuildFlows(topo)
	if err != nil {
		return err
	}
	plan, err := sys.PlanVoIP(flows, m, cdc)
	if err != nil {
		return err
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := scenario.Save(f, spec, sys.Frame, plan); err != nil {
			return err
		}
		fmt.Fprintf(out, "plan saved to %s\n", *savePath)
	}
	if *asJSON {
		return writeJSON(out, topo, plan)
	}
	writeText(out, topo, flows, plan)
	return nil
}

func writeText(out io.Writer, topo *topology.Network, flows *topology.FlowSet, plan *core.Plan) {
	fmt.Fprintf(out, "topology: %d nodes, %d directed links\n", topo.NumNodes(), topo.NumLinks())
	fmt.Fprintf(out, "flows: %d (max %d hops)\n", len(flows.Flows), flows.MaxHops())
	fmt.Fprintf(out, "method: %s\n", plan.Method)
	fmt.Fprintf(out, "window: %d slots", plan.WindowSlots)
	if plan.ILPsSolved > 0 {
		fmt.Fprintf(out, " (%d ILPs solved)", plan.ILPsSolved)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "max scheduling delay: %v\n", plan.MaxSchedulingDelay)
	fmt.Fprintln(out)
	fmt.Fprint(out, plan.Schedule.String())
}

type jsonPlan struct {
	Nodes              int              `json:"nodes"`
	Links              int              `json:"links"`
	Method             string           `json:"method"`
	WindowSlots        int              `json:"windowSlots"`
	MaxSchedulingDelay string           `json:"maxSchedulingDelay"`
	Assignments        []jsonAssignment `json:"assignments"`
	Demands            map[string]int   `json:"demandsSlots"`
}

type jsonAssignment struct {
	Link   int `json:"link"`
	From   int `json:"from"`
	To     int `json:"to"`
	Start  int `json:"start"`
	Length int `json:"length"`
}

func writeJSON(out io.Writer, topo *topology.Network, plan *core.Plan) error {
	jp := jsonPlan{
		Nodes:              topo.NumNodes(),
		Links:              topo.NumLinks(),
		Method:             plan.Method.String(),
		WindowSlots:        plan.WindowSlots,
		MaxSchedulingDelay: plan.MaxSchedulingDelay.String(),
		Demands:            make(map[string]int),
	}
	for _, a := range plan.Schedule.Assignments {
		lk, err := topo.Link(a.Link)
		if err != nil {
			return err
		}
		jp.Assignments = append(jp.Assignments, jsonAssignment{
			Link: int(a.Link), From: int(lk.From), To: int(lk.To),
			Start: a.Start, Length: a.Length,
		})
	}
	for l, d := range plan.Problem.Demand {
		jp.Demands[fmt.Sprintf("L%d", l)] = d
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(jp)
}
