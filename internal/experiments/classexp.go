package experiments

import (
	"context"
	"fmt"
	"time"

	"wimesh/internal/admit"
	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/stats"
	"wimesh/internal/topology"
)

// R21 parameters: the class-scheduling experiment reuses R20's city geometry
// (RandomDisk at R18's density, 130 m range, seed 42) and gateway-directed
// traffic, but offers a mixed service workload — voice (UGS), video (rtPS),
// bulk data (nrtPS) and best-effort — against a class-aware engine. The UGS
// deadline pins voice grants into the first 3/8 of the 256-slot frame and
// the rtPS window pins voice+video into the first 3/4, the periodic-grant /
// polled-window split of the 802.16 frame map. Solves carry a node budget
// only (no wall-clock limit) so verdicts are host-independent; per-class
// decision latencies are the volatile columns.
const (
	r21Seed        = 42
	r21SolveBudget = 2000
	r21ZoneSize    = 2 * r18CommRange
	r21FrameSlots  = 256
	r21UGSDeadline = 96
	r21RtPSWindow  = 192
)

// r21Mix is the offered class mix: mostly voice, with enough best-effort
// and nrtPS mass that the preemptive arm has victims to evict. Video and
// bulk calls carry twice the per-link demand of voice.
var r21Mix = []admit.ClassShare{
	{Class: admit.ClassUGS, Weight: 0.40, SlotsPerLink: 1},
	{Class: admit.ClassRtPS, Weight: 0.25, SlotsPerLink: 2},
	{Class: admit.ClassNrtPS, Weight: 0.20, SlotsPerLink: 2},
	{Class: admit.ClassBE, Weight: 0.15, SlotsPerLink: 1},
}

// r21Point is one mesh scale of the R21 sweep; every point runs once with
// preemption off and once with it on.
type r21Point struct {
	nodes   int
	calls   int
	rate    float64 // arrivals per second
	holding time.Duration
}

// R21ClassScheduling replays the mixed-class gateway-directed workload
// through the zoned class-aware engine, with and without preemptive
// admission, at two city scales. The deadline columns come from the same
// schedule the verdicts do: admitting a call may only place its UGS slots
// before the deadline and its rtPS slots before the polled window, so the
// admitted counts embody the class guarantees. With preemption on, late
// voice and video arrivals evict best-effort and bulk calls instead of
// being rejected ('preempted' counts the evicted calls); the admission
// rate of the guaranteed classes rises at the expense of the classes the
// paper allows to starve. Per-class p99 decision latencies are host time
// and volatile; every verdict column is exact.
func R21ClassScheduling() (*Table, error) {
	return r21Table("R21", []r21Point{
		{nodes: 250, calls: 300, rate: 30, holding: 20 * time.Second},
		{nodes: 1000, calls: 300, rate: 30, holding: 20 * time.Second},
	})
}

// r21Table runs the sweep; the reduced class-smoke configuration shares it.
func r21Table(id string, points []r21Point) (*Table, error) {
	t := &Table{
		ID: id,
		Header: []string{"nodes", "links", "preempt", "offered", "admitted", "rejected", "preempted",
			"adm %", "ugs p99 us", "rtps p99 us", "nrtps p99 us", "be p99 us"},
		Notes: "random disk at R18's density (range 130 m, zoned engine, " + fmt.Sprint(r21ZoneSize) +
			" m zones, seed " + fmt.Sprint(r21Seed) + "); frame " + fmt.Sprint(r21FrameSlots) +
			" slots, UGS deadline " + fmt.Sprint(r21UGSDeadline) + ", rtPS window " + fmt.Sprint(r21RtPSWindow) +
			"; Poisson arrivals all routed to the gateway, mix ugs=.40/1 rtps=.25/2 nrtps=.20/2 be=.15/1" +
			" (class=share/slots-per-link), holding long against the arrival span (overload);" +
			" solves budgeted at " + fmt.Sprint(r21SolveBudget) + " nodes, no wall-clock limit;" +
			" 'preempted' counts calls evicted by guaranteed-class arrivals;" +
			" per-class p99 decision latencies are host time (volatile), verdict columns are exact",
		HostTime: []string{"ugs p99 us", "rtps p99 us", "nrtps p99 us", "be p99 us"},
	}
	cfg := emuFrame(r21FrameSlots)
	for _, pt := range points {
		net, err := topology.RandomDisk(pt.nodes, r18Side(pt.nodes), r18CommRange, r21Seed)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
		if err != nil {
			return nil, err
		}
		w, err := admit.Generate(admit.WorkloadConfig{
			Topo: net, Calls: pt.calls, ArrivalRate: pt.rate,
			MeanHolding: pt.holding, SlotsPerLink: 1, Seed: r21Seed,
			ToGateway: true, ClassMix: r21Mix,
		})
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", id, pt.nodes, err)
		}
		for _, preempt := range []bool{false, true} {
			eng, err := admit.New(admit.Config{
				Graph:       g,
				Frame:       cfg,
				MILP:        milp.Options{MaxNodes: r21SolveBudget},
				Zoned:       true,
				ZoneSize:    r21ZoneSize,
				UGSDeadline: r21UGSDeadline,
				RtPSWindow:  r21RtPSWindow,
				Preempt:     preempt,
			})
			if err != nil {
				return nil, fmt.Errorf("%s n=%d preempt=%v: %w", id, pt.nodes, preempt, err)
			}
			st, err := admit.Serve(context.Background(), eng, w)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d preempt=%v: %w", id, pt.nodes, preempt, err)
			}
			admPct := 0.0
			if st.Offered > 0 {
				admPct = 100 * float64(st.Admitted) / float64(st.Offered)
			}
			t.AddRow(pt.nodes, net.NumLinks(), preempt,
				st.Offered, st.Admitted, st.Rejected, st.Preempted,
				fmt.Sprintf("%.1f", admPct),
				r21P99(&st.ClassLatency[admit.ClassUGS]), r21P99(&st.ClassLatency[admit.ClassRtPS]),
				r21P99(&st.ClassLatency[admit.ClassNrtPS]), r21P99(&st.ClassLatency[admit.ClassBE]))
		}
	}
	return t, nil
}

// r21P99 formats a class's p99 decision latency in microseconds, or "-" when
// the workload offered no call of that class.
func r21P99(s *stats.Sample) string {
	if s.Len() == 0 {
		return "-"
	}
	p99, err := s.Quantile(0.99)
	if err != nil {
		return "-"
	}
	return fmt.Sprintf("%.0f", p99*1e6)
}
