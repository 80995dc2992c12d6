package admit

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"wimesh/internal/stats"
	"wimesh/internal/topology"
)

// Event is one arrival or departure of a serving workload, ordered by
// virtual time.
type Event struct {
	// At is the virtual occurrence time from the workload start.
	At time.Duration
	// Arrive distinguishes arrivals (carrying Flow) from departures
	// (carrying only Flow.ID).
	Arrive bool
	Flow   Flow
}

// Workload is a deterministic call sequence: Poisson arrivals with
// exponential holding times over random shortest-path routes. The same
// WorkloadConfig always generates the byte-identical event list — every
// random draw happens in a fixed order from one seeded source, and
// departures are emitted for every arrival whether or not an engine later
// admits it, so replay does not depend on admission outcomes.
type Workload struct {
	Events []Event
	// Erlang is the offered load: arrival rate times mean holding time.
	Erlang float64
}

// WorkloadConfig parameterizes Generate.
type WorkloadConfig struct {
	Topo *topology.Network
	// Calls is the number of arrivals to generate.
	Calls int
	// ArrivalRate is the Poisson arrival intensity in calls per second.
	ArrivalRate float64
	// MeanHolding is the mean exponential call duration.
	MeanHolding time.Duration
	// SlotsPerLink is the demand one call adds on each link of its route.
	SlotsPerLink int
	// Seed drives all randomness.
	Seed int64
	// ToGateway routes every call to the topology's gateway instead of the
	// drawn destination — the WiMAX-mesh traffic pattern, where all flows
	// transit the base station. The destination draw still happens, so the
	// random sequence (and hence every later call) is unchanged; calls
	// originating at the gateway itself are dropped like unroutable ones.
	ToGateway bool
	// ClassMix, when non-empty, draws each call's service class from the
	// weighted mix (one extra uniform draw per call, after the holding
	// time, so an empty mix keeps the legacy random sequence exactly).
	// A share's SlotsPerLink overrides the workload-wide one, letting
	// video (rtPS) and bulk-data (nrtPS) calls carry heavier demand than
	// voice. An empty mix generates pure best-effort flows as before.
	ClassMix []ClassShare
}

// ClassShare is one component of a workload's service-class mix.
type ClassShare struct {
	Class Class
	// Weight is this class's share of arrivals, normalized over the mix.
	Weight float64
	// SlotsPerLink overrides WorkloadConfig.SlotsPerLink for this class
	// (0 = inherit).
	SlotsPerLink int
}

// positiveFinite rejects NaN and +Inf along with x <= 0. A NaN weight fails
// every `x < weight` of the class draw, so the last share would win every
// call, and a NaN or infinite rate yields NaN or zero inter-arrival times.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Generate builds the workload. Calls between nodes with no route are
// dropped after their draws are consumed, keeping the sequence of random
// numbers — and hence every later call — independent of routing outcomes.
func Generate(cfg WorkloadConfig) (*Workload, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrBadFlow)
	}
	n := cfg.Topo.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("%w: %d nodes, need at least 2", ErrBadFlow, n)
	}
	if cfg.Calls <= 0 || !positiveFinite(cfg.ArrivalRate) || cfg.MeanHolding <= 0 || cfg.SlotsPerLink <= 0 {
		return nil, fmt.Errorf("%w: workload parameter not positive and finite", ErrBadFlow)
	}
	var mixTotal float64
	for _, cs := range cfg.ClassMix {
		if !positiveFinite(cs.Weight) {
			return nil, fmt.Errorf("%w: class %s weight %v, want positive and finite", ErrBadFlow, cs.Class, cs.Weight)
		}
		if cs.Class > ClassUGS {
			return nil, fmt.Errorf("%w: unknown class %d in mix", ErrBadFlow, cs.Class)
		}
		if cs.SlotsPerLink < 0 {
			return nil, fmt.Errorf("%w: class %s slots per link %d", ErrBadFlow, cs.Class, cs.SlotsPerLink)
		}
		mixTotal += cs.Weight
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Erlang: cfg.ArrivalRate * cfg.MeanHolding.Seconds()}
	now := time.Duration(0)
	for i := 0; i < cfg.Calls; i++ {
		// Fixed draw order: interarrival, src, dst (redrawn while == src),
		// holding. Nothing else consumes rng.
		now += time.Duration(rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second))
		src := topology.NodeID(rng.Intn(n))
		dst := topology.NodeID(rng.Intn(n))
		for dst == src {
			dst = topology.NodeID(rng.Intn(n))
		}
		holding := time.Duration(rng.ExpFloat64() * float64(cfg.MeanHolding))
		class := ClassBE
		spl := cfg.SlotsPerLink
		if len(cfg.ClassMix) > 0 {
			// The class draw comes last and only when a mix is configured,
			// so mixless workloads replay the legacy random sequence.
			x := rng.Float64() * mixTotal
			cs := cfg.ClassMix[len(cfg.ClassMix)-1]
			for _, c := range cfg.ClassMix {
				if x < c.Weight {
					cs = c
					break
				}
				x -= c.Weight
			}
			class = cs.Class
			if cs.SlotsPerLink > 0 {
				spl = cs.SlotsPerLink
			}
		}
		if cfg.ToGateway {
			gw, ok := cfg.Topo.Gateway()
			if !ok {
				return nil, fmt.Errorf("%w: ToGateway needs a gateway node", ErrBadFlow)
			}
			if src == gw {
				continue
			}
			dst = gw
		}
		path, err := cfg.Topo.ShortestPath(src, dst)
		if err != nil || len(path) == 0 {
			continue
		}
		slots := make([]int, len(path))
		for j := range slots {
			slots[j] = spl
		}
		f := Flow{ID: FlowID(fmt.Sprintf("call-%d", i)), Path: path, Slots: slots, Class: class}
		w.Events = append(w.Events,
			Event{At: now, Arrive: true, Flow: f},
			Event{At: now + holding, Flow: Flow{ID: f.ID}})
	}
	// Order by time; at equal times departures go first (they free
	// capacity), then generation order keeps ties deterministic.
	slices.SortStableFunc(w.Events, func(a, b Event) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		if a.Arrive != b.Arrive {
			if a.Arrive {
				return 1
			}
			return -1
		}
		return 0
	})
	return w, nil
}

// ServeStats summarizes one Serve run.
type ServeStats struct {
	Offered, Admitted, Rejected int
	Fast, Warm, Cold, Witness   int
	// Preempted counts flows evicted by preemptive admissions during the
	// replay (Config.Preempt). Evicted flows stay counted as Admitted —
	// they were served until eviction — but their departures become no-ops.
	Preempted int
	// Latency collects per-decision latencies in seconds; ClassLatency the
	// same values split by the arriving flow's class.
	Latency      stats.Sample
	ClassLatency [ClassUGS + 1]stats.Sample
	// Elapsed is the wall time spent inside Admit/Release calls.
	Elapsed time.Duration
	// Wall is the end-to-end replay time. For a serial replay it tracks
	// Elapsed closely; for ServeConcurrent it is the fair throughput
	// denominator, since workers overlap their in-call time.
	Wall time.Duration

	// live is the replay's view of which flows the engine still serves.
	live map[FlowID]bool
}

// Record books one decided arrival: the verdict and tier tallies, the
// latency, and the replay's live set — the flow enters it when admitted, and
// the flows its admission evicted leave it (the engine no longer serves
// them; dropping them here keeps their departures from releasing unknown
// IDs).
func (st *ServeStats) Record(f Flow, d Decision) {
	st.Offered++
	st.Elapsed += d.Latency
	st.Latency.AddDuration(d.Latency)
	st.ClassLatency[f.Class].AddDuration(d.Latency)
	if d.Admitted {
		st.Admitted++
		if st.live == nil {
			st.live = make(map[FlowID]bool)
		}
		st.live[f.ID] = true
		for _, id := range d.Preempted {
			delete(st.live, id)
			st.Preempted++
		}
	} else {
		st.Rejected++
	}
	switch d.Tier {
	case TierFast:
		st.Fast++
	case TierWarm:
		st.Warm++
	case TierCold:
		st.Cold++
	case TierWitness:
		st.Witness++
	}
}

// Depart reports whether the replay still holds the flow as served — so its
// departure must Release it — and forgets it.
func (st *ServeStats) Depart(id FlowID) bool {
	ok := st.live[id]
	delete(st.live, id)
	return ok
}

// Serve replays the workload against the engine as fast as possible (event
// times only order the replay, they are not slept). It stops early when ctx
// is cancelled — including mid-solve, via the engine's solver interrupt —
// and returns ctx.Err() with the stats accumulated so far.
func Serve(ctx context.Context, e *Engine, w *Workload) (st ServeStats, _ error) {
	wallStart := time.Now()
	defer func() { st.Wall = time.Since(wallStart) }()
	for _, ev := range w.Events {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if !ev.Arrive {
			if st.Depart(ev.Flow.ID) {
				start := time.Now()
				if err := e.Release(ev.Flow.ID); err != nil {
					return st, err
				}
				st.Elapsed += time.Since(start)
			}
			continue
		}
		dec, err := e.Admit(ctx, ev.Flow)
		if err != nil {
			st.Offered++
			return st, err
		}
		st.Record(ev.Flow, dec)
	}
	return st, nil
}
