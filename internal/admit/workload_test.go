package admit

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"wimesh/internal/topology"
)

// TestWorkloadByteIdenticalReplay pins the determinism contract: the same
// config generates the identical event list, and departures exist for every
// arrival — the replay is engine-agnostic, admission outcomes cannot change
// the sequence.
func TestWorkloadByteIdenticalReplay(t *testing.T) {
	topo, err := topology.Grid(3, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WorkloadConfig{
		Topo: topo, Calls: 200, ArrivalRate: 25, MeanHolding: 300 * time.Millisecond,
		SlotsPerLink: 2, Seed: 77,
	}
	w1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same config generated different workloads")
	}
	if got, want := w1.Erlang, 25*0.3; got != want {
		t.Errorf("Erlang = %g, want %g", got, want)
	}

	arrivals := make(map[FlowID]time.Duration)
	departures := make(map[FlowID]time.Duration)
	last := time.Duration(-1)
	for _, ev := range w1.Events {
		if ev.At < last {
			t.Fatalf("events out of order: %v after %v", ev.At, last)
		}
		last = ev.At
		if ev.Arrive {
			if len(ev.Flow.Path) == 0 || len(ev.Flow.Path) != len(ev.Flow.Slots) {
				t.Fatalf("malformed arrival %+v", ev.Flow)
			}
			arrivals[ev.Flow.ID] = ev.At
		} else {
			departures[ev.Flow.ID] = ev.At
		}
	}
	if len(arrivals) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(arrivals) != len(departures) {
		t.Fatalf("%d arrivals but %d departures", len(arrivals), len(departures))
	}
	for id, at := range arrivals {
		dep, ok := departures[id]
		if !ok {
			t.Fatalf("arrival %s has no departure", id)
		}
		if dep < at {
			t.Fatalf("flow %s departs at %v before arriving at %v", id, dep, at)
		}
	}

	// A different seed must actually change the sequence.
	cfg.Seed = 78
	w3, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(w1.Events, w3.Events) {
		t.Fatal("different seeds generated identical workloads")
	}
}

func TestWorkloadValidation(t *testing.T) {
	topo, err := topology.Grid(2, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	good := WorkloadConfig{Topo: topo, Calls: 1, ArrivalRate: 1,
		MeanHolding: time.Second, SlotsPerLink: 1, Seed: 1}
	for _, mut := range []func(*WorkloadConfig){
		func(c *WorkloadConfig) { c.Topo = nil },
		func(c *WorkloadConfig) { c.Calls = 0 },
		func(c *WorkloadConfig) { c.ArrivalRate = 0 },
		func(c *WorkloadConfig) { c.MeanHolding = 0 },
		func(c *WorkloadConfig) { c.SlotsPerLink = 0 },
		func(c *WorkloadConfig) { c.ArrivalRate = math.NaN() },
		func(c *WorkloadConfig) { c.ArrivalRate = math.Inf(1) },
		func(c *WorkloadConfig) { c.ArrivalRate = math.Inf(-1) },
		func(c *WorkloadConfig) { c.ClassMix = []ClassShare{{Class: ClassUGS, Weight: math.NaN()}, {Weight: 1}} },
		func(c *WorkloadConfig) { c.ClassMix = []ClassShare{{Class: ClassUGS, Weight: math.Inf(1)}} },
		func(c *WorkloadConfig) { c.ClassMix = []ClassShare{{Class: ClassUGS, Weight: math.Inf(-1)}} },
	} {
		bad := good
		mut(&bad)
		if _, err := Generate(bad); !errors.Is(err, ErrBadFlow) {
			t.Errorf("Generate(%+v) err = %v, want ErrBadFlow", bad, err)
		}
	}
	if _, err := Generate(good); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}
