package core

import (
	"errors"
	"fmt"
	"time"

	"wimesh/internal/mac/tdmaemu"
	"wimesh/internal/milp"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// PlanMethod selects the scheduling algorithm.
type PlanMethod int

// Scheduling methods.
const (
	// MethodILP runs the Djukic-Valaee linear search with an ILP
	// feasibility test per window: minimum slots, delay bounds honored.
	MethodILP PlanMethod = iota + 1
	// MethodMinMaxDelay solves the exact min-max delay order optimization
	// over the full frame.
	MethodMinMaxDelay
	// MethodPathMajor uses the greedy delay-aware order (hops in path
	// order) in its smallest window, the order's longest path.
	MethodPathMajor
	// MethodTreeOrder uses the polynomial overlay-tree order (gateway
	// traffic) in its smallest window, the order's longest path.
	MethodTreeOrder
	// MethodGreedy is the delay-oblivious first-fit coloring baseline.
	MethodGreedy
	// MethodPartitioned cuts the mesh into interference zones, solves the
	// per-zone ILPs concurrently and stitches the results — the city-scale
	// path (see internal/partition). Throughput demands are met exactly;
	// delay bounds only steer the in-zone solves.
	MethodPartitioned
)

func (m PlanMethod) String() string {
	switch m {
	case MethodILP:
		return "ilp"
	case MethodMinMaxDelay:
		return "minmax-delay"
	case MethodPathMajor:
		return "path-major"
	case MethodTreeOrder:
		return "tree-order"
	case MethodGreedy:
		return "greedy"
	case MethodPartitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("PlanMethod(%d)", int(m))
	}
}

// Plan is a computed QoS schedule.
type Plan struct {
	Method   PlanMethod
	Schedule *tdma.Schedule
	Problem  *schedule.Problem
	// WindowSlots is the number of slots the schedule occupies.
	WindowSlots int
	// MaxSchedulingDelay is the largest end-to-end scheduling delay over
	// the planned flows (excludes the initial up-to-one-frame wait).
	MaxSchedulingDelay time.Duration
	// ILPsSolved counts integer programs solved (MethodILP,
	// MethodPartitioned).
	ILPsSolved int
}

// defaultMILPOptions bounds the planner's searches by a node budget alone.
func defaultMILPOptions() milp.Options { return milp.Options{MaxNodes: 500_000} }

// bytesPerSlot returns how many bytes of packetBytes-sized packets one slot
// carries on link l. It honors the link's PHY rate (adaptive modulation):
// slower links carry fewer bytes per slot and therefore demand more slots.
func (s *System) bytesPerSlot(l topology.LinkID, packetBytes int) (int, error) {
	mac := s.MAC.Defaulted()
	lk, err := s.Topo.Link(l)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	rate := mac.DataRateBps
	if lk.RateBps > 0 && mac.PHY.SupportsRate(lk.RateBps) {
		rate = lk.RateBps
	}
	b, err := tdmaemu.BytesPerSlotAtRate(mac, s.Frame, packetBytes, rate)
	if err != nil {
		return 0, err
	}
	if b <= 0 {
		return 0, fmt.Errorf("core: a %v slot at %g b/s cannot carry a %d-byte packet (link %d)",
			s.Frame.SlotDuration(), rate, packetBytes, l)
	}
	return b, nil
}

// Plan computes a conflict-free TDMA schedule supporting every flow in fs
// (demands from packet sizes, delay bounds from flow DelayBounds).
// packetBytes is the IP packet size the flows carry (voip codec packets);
// it sets the slot demand conversion.
func (s *System) Plan(fs *topology.FlowSet, method PlanMethod, packetBytes int) (*Plan, error) {
	if fs == nil || len(fs.Flows) == 0 {
		return nil, errors.New("core: no flows to plan")
	}
	if packetBytes <= 0 {
		return nil, fmt.Errorf("core: bad packet size %d", packetBytes)
	}
	perLink := make(map[topology.LinkID]int)
	for l := range fs.LinkDemandBps() {
		b, err := s.bytesPerSlot(l, packetBytes)
		if err != nil {
			return nil, err
		}
		perLink[l] = b
	}
	demand, err := schedule.SlotDemand(fs, s.Frame, func(l topology.LinkID) int { return perLink[l] })
	if err != nil {
		return nil, err
	}
	reqs, err := schedule.Requirements(fs, s.Frame)
	if err != nil {
		return nil, err
	}
	p := &schedule.Problem{
		Graph:      s.Graph,
		Demand:     demand,
		FrameSlots: s.Frame.DataSlots,
		Flows:      reqs,
	}
	plan := &Plan{Method: method, Problem: p}
	switch method {
	case MethodILP:
		win, sched, solved, err := schedule.MinSlots(p, s.Frame, defaultMILPOptions())
		if err != nil {
			return nil, fmt.Errorf("core: plan %v: %w", method, err)
		}
		plan.Schedule, plan.WindowSlots, plan.ILPsSolved = sched, win, solved
	case MethodMinMaxDelay:
		res, err := schedule.MinMaxDelayOrder(p, s.Frame.DataSlots, s.Frame, defaultMILPOptions())
		if err != nil {
			return nil, fmt.Errorf("core: plan %v: %w", method, err)
		}
		plan.Schedule, plan.WindowSlots = res.Schedule, s.Frame.DataSlots
	case MethodPathMajor:
		win, sched, err := schedule.MinWindowForOrder(p, schedule.PathMajorOrder(p), s.Frame)
		if err != nil {
			return nil, fmt.Errorf("core: plan %v: %w", method, err)
		}
		plan.Schedule, plan.WindowSlots = sched, win
	case MethodTreeOrder:
		rt, err := s.Topo.BuildRoutingTree()
		if err != nil {
			return nil, fmt.Errorf("core: plan %v: %w", method, err)
		}
		order, err := schedule.TreeOrder(p, rt, s.Topo)
		if err != nil {
			return nil, fmt.Errorf("core: plan %v: %w", method, err)
		}
		win, sched, err := schedule.MinWindowForOrder(p, order, s.Frame)
		if err != nil {
			return nil, fmt.Errorf("core: plan %v: %w", method, err)
		}
		plan.Schedule, plan.WindowSlots = sched, win
	case MethodGreedy:
		sched, err := schedule.Greedy(p, s.Frame)
		if err != nil {
			return nil, fmt.Errorf("core: plan %v: %w", method, err)
		}
		plan.Schedule, plan.WindowSlots = sched, schedule.GreedyLength(sched)
	case MethodPartitioned:
		res, err := partition.MinSlots(p, s.Frame, partition.Options{
			ZoneSize: s.ZoneSize,
			MILP:     defaultMILPOptions(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: plan %v: %w", method, err)
		}
		plan.Schedule, plan.WindowSlots, plan.ILPsSolved = res.Schedule, res.WindowSlots, res.ILPsSolved
	default:
		return nil, fmt.Errorf("core: unknown plan method %d", int(method))
	}
	maxD, err := schedule.MaxPathDelay(p, plan.Schedule)
	if err != nil {
		return nil, err
	}
	plan.MaxSchedulingDelay = maxD
	return plan, nil
}

// PlanVoIP is Plan specialized to a codec's packet size.
func (s *System) PlanVoIP(fs *topology.FlowSet, method PlanMethod, codec voip.Codec) (*Plan, error) {
	return s.Plan(fs, method, codec.PacketBytes())
}
