package admit

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"wimesh/internal/milp"
	"wimesh/internal/topology"
)

// preemptTestEngine builds the zoned, classed, preemptive engine of the
// golden trace's third replay: an 8x2 grid cut into 250 m zones so routes
// cross several of them, under a cap and deadlines tight enough that
// guaranteed arrivals preempt and some preemption searches fail.
func preemptTestEngine(t *testing.T) (*topology.Network, *Engine) {
	t.Helper()
	topo, g := testMesh(t, 8, 2)
	e, err := New(Config{Graph: g, Frame: testFrame(t, 32), MaxWindow: 14, Zoned: true, ZoneSize: 250,
		UGSDeadline: 6, RtPSWindow: 10, Preempt: true,
		MILP: milp.Options{MaxNodes: 12}})
	if err != nil {
		t.Fatal(err)
	}
	return topo, e
}

var preemptTestMix = []ClassShare{
	{Class: ClassUGS, Weight: 0.35},
	{Class: ClassRtPS, Weight: 0.2, SlotsPerLink: 2},
	{Class: ClassNrtPS, Weight: 0.2, SlotsPerLink: 2},
	{Class: ClassBE, Weight: 0.25},
}

// TestPreemptConcurrentSoak hammers a zoned preemptive engine with
// concurrent Admit, AdmitBatch, Release and TryDefrag — guaranteed arrivals
// that lock every zone next to best-effort ones that lock their own — while
// a checker runs Engine.Check the whole time: whenever e.mu is free the
// invariants must hold, trial evictions and trial stitches included. The
// ledger then proves every admitted flow left the engine exactly once, by
// release or by eviction, and that a Release only ever missed a flow some
// decision reported evicted. Run under -race by `make class-smoke`.
func TestPreemptConcurrentSoak(t *testing.T) {
	topo, e := preemptTestEngine(t)
	ctx := context.Background()

	var mu sync.Mutex
	admitted := make(map[FlowID]int)
	released := make(map[FlowID]int)
	missed := make(map[FlowID]int)
	evicted := make(map[FlowID]int)

	const workers, rounds = 4, 24
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mkFlow := func(r, k int) (Flow, error) {
				src := topology.NodeID(rng.Intn(16))
				dst := topology.NodeID(rng.Intn(16))
				for dst == src {
					dst = topology.NodeID(rng.Intn(16))
				}
				path, err := topo.ShortestPath(src, dst)
				if err != nil {
					return Flow{}, err
				}
				cs := preemptTestMix[rng.Intn(len(preemptTestMix))]
				slots := make([]int, len(path))
				for i := range slots {
					slots[i] = max(cs.SlotsPerLink, 1)
				}
				return Flow{ID: FlowID(fmt.Sprintf("w%d-r%d-%d", w, r, k)), Path: path, Slots: slots, Class: cs.Class}, nil
			}
			var live []FlowID
			release := func(id FlowID) error {
				err := e.Release(id)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					released[id]++
				case errors.Is(err, ErrUnknownFlow):
					missed[id]++
				default:
					return fmt.Errorf("release %s: %w", id, err)
				}
				return nil
			}
			for r := 0; r < rounds; r++ {
				n := 1
				if r%5 == 0 {
					n = 3
				}
				flows := make([]Flow, n)
				for k := range flows {
					f, err := mkFlow(r, k)
					if err != nil {
						errCh <- err
						return
					}
					flows[k] = f
				}
				var decs []Decision
				var err error
				if n == 1 {
					var d Decision
					d, err = e.Admit(ctx, flows[0])
					decs = []Decision{d}
				} else {
					decs, err = e.AdmitBatch(ctx, flows)
				}
				if err != nil {
					errCh <- fmt.Errorf("admit round %d: %w", r, err)
					return
				}
				mu.Lock()
				for i, d := range decs {
					if d.Admitted {
						admitted[flows[i].ID]++
						live = append(live, flows[i].ID)
					}
					for _, id := range d.Preempted {
						evicted[id]++
					}
				}
				mu.Unlock()
				for len(live) > 2 {
					if err := release(live[0]); err != nil {
						errCh <- err
						return
					}
					live = live[1:]
				}
			}
			for _, id := range live {
				if err := release(id); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			if _, err := e.TryDefrag(ctx); err != nil {
				errCh <- fmt.Errorf("defrag: %w", err)
				return
			}
			if err := e.Check(); err != nil {
				errCh <- fmt.Errorf("invariants with decisions in flight: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	checker.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := e.Check(); err != nil {
		t.Fatalf("invariants after soak: %v", err)
	}
	if n := e.NumFlows(); n != 0 {
		t.Fatalf("%d flows leaked", n)
	}
	for id, n := range admitted {
		if n != 1 || released[id]+evicted[id] != 1 {
			t.Errorf("flow %s: admitted %d times, released %d, evicted %d — want exactly one exit",
				id, n, released[id], evicted[id])
		}
	}
	for id, n := range missed {
		if n != 1 || evicted[id] != 1 {
			t.Errorf("flow %s: %d releases missed it, %d evictions reported", id, n, evicted[id])
		}
	}
	for id := range evicted {
		if admitted[id] != 1 {
			t.Errorf("evicted flow %s was never admitted", id)
		}
	}
	st := e.Stats()
	if st.PreemptAdmits == 0 || st.PreemptAttempts == st.PreemptAdmits {
		t.Fatalf("soak missed a path (want preemptive admits and failed searches): %+v", st)
	}
	if int(st.PreemptEvicted) != len(evicted) {
		t.Fatalf("engine evicted %d flows, decisions reported %d", st.PreemptEvicted, len(evicted))
	}
}

// TestPreemptRollbackExact replays an overloaded classed workload on the
// zoned preemptive engine and pins, for every failed preemption search, that
// the engine afterwards is exactly the engine before: same blocks in the same
// order, same demand, class totals, flow table and window. At least one such
// search must have evicted on trial (gen moves twice per trial eviction and
// restore, and not at all for a search without victims).
func TestPreemptRollbackExact(t *testing.T) {
	topo, e := preemptTestEngine(t)
	w, err := Generate(WorkloadConfig{Topo: topo, Calls: 80, ArrivalRate: 30, MeanHolding: 600 * time.Millisecond,
		SlotsPerLink: 1, Seed: 11, ClassMix: preemptTestMix})
	if err != nil {
		t.Fatal(err)
	}
	var st ServeStats
	trialRollbacks := 0
	for _, ev := range w.Events {
		if !ev.Arrive {
			if st.Depart(ev.Flow.ID) {
				if err := e.Release(ev.Flow.ID); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		blocks, demand, cls := e.pack.Assignments(), maps.Clone(e.demand), maps.Clone(e.cls)
		flows, win, gen, attempts := len(e.flows), e.pack.Makespan(), e.gen, e.stats.PreemptAttempts
		d, err := e.Admit(context.Background(), ev.Flow)
		if err != nil {
			t.Fatal(err)
		}
		st.Record(ev.Flow, d)
		if d.Admitted || e.stats.PreemptAttempts == attempts {
			continue
		}
		if e.gen != gen {
			trialRollbacks++
		}
		if !slices.Equal(blocks, e.pack.Assignments()) || !maps.Equal(demand, e.demand) ||
			!maps.Equal(cls, e.cls) || flows != len(e.flows) || win != e.pack.Makespan() {
			t.Fatalf("failed preemption search for %s left the engine changed", ev.Flow.ID)
		}
		if err := e.Check(); err != nil {
			t.Fatalf("after failed preemption search for %s: %v", ev.Flow.ID, err)
		}
	}
	if trialRollbacks == 0 {
		t.Fatal("no failed preemption search evicted on trial; the rollback went unexercised")
	}
}

// TestReleaseDuringPreemptTrial calls Release on a preemption victim from
// inside the trial solve, where the victim is out of the flow table and may
// yet be put back. Release must not answer from that state: it waits for the
// search, then reports ErrUnknownFlow if the eviction was committed and
// releases the flow if it was rolled back — never "unknown" for a flow the
// engine goes on serving, which would leak it.
func TestReleaseDuringPreemptTrial(t *testing.T) {
	topo, e := preemptTestEngine(t)
	w, err := Generate(WorkloadConfig{Topo: topo, Calls: 80, ArrivalRate: 30, MeanHolding: 600 * time.Millisecond,
		SlotsPerLink: 1, Seed: 11, ClassMix: preemptTestMix})
	if err != nil {
		t.Fatal(err)
	}
	var st ServeStats
	var victim FlowID
	var released chan error
	e.solveHook = func() {
		if released != nil {
			return
		}
		e.mu.Lock()
		for id := range st.live {
			if _, ok := e.flows[id]; !ok && (victim == "" || id < victim) {
				victim = id
			}
		}
		e.mu.Unlock()
		if victim == "" {
			return
		}
		released = make(chan error, 1)
		go func(id FlowID) { released <- e.Release(id) }(victim)
		select {
		case err := <-released:
			t.Errorf("Release(%s) answered %v while the flow was out on trial", victim, err)
			released <- err
		case <-time.After(5 * time.Millisecond):
		}
	}
	rolledBack, committed := 0, 0
	for _, ev := range w.Events {
		if !ev.Arrive {
			if st.Depart(ev.Flow.ID) {
				if err := e.Release(ev.Flow.ID); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		d, err := e.Admit(context.Background(), ev.Flow)
		if err != nil {
			t.Fatal(err)
		}
		st.Record(ev.Flow, d)
		if released == nil {
			continue
		}
		err = <-released
		if slices.Contains(d.Preempted, victim) {
			committed++
			if !errors.Is(err, ErrUnknownFlow) {
				t.Fatalf("Release(%s) after its committed eviction: %v", victim, err)
			}
		} else {
			rolledBack++
			if err != nil || !st.Depart(victim) {
				t.Fatalf("Release(%s) after its eviction was rolled back: %v", victim, err)
			}
		}
		victim, released = "", nil
	}
	if rolledBack == 0 {
		t.Fatalf("no trial with a victim out was rolled back (%d committed); the replay missed the case", committed)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if n := e.NumFlows(); n != 0 {
		t.Fatalf("%d flows leaked", n)
	}
}

// TestServeConcurrentPreempt replays a preemptive workload across several
// workers: an eviction may hit a flow another worker admitted, whose
// departure then finds the flow gone and must treat it as evicted rather
// than fail the replay.
func TestServeConcurrentPreempt(t *testing.T) {
	topo, e := preemptTestEngine(t)
	w, err := Generate(WorkloadConfig{Topo: topo, Calls: 100, ArrivalRate: 30, MeanHolding: 600 * time.Millisecond,
		SlotsPerLink: 1, Seed: 11, ClassMix: preemptTestMix})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeConcurrent(context.Background(), e, w, ServeOptions{Workers: 4, BatchMax: 4})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if st.Offered != len(w.Events)/2 || st.Admitted+st.Rejected != st.Offered {
		t.Fatalf("bookkeeping does not reconcile: %+v", st)
	}
	if st.Preempted == 0 || uint64(st.Preempted) != e.Stats().PreemptEvicted {
		t.Fatalf("replay counted %d evictions, engine %d", st.Preempted, e.Stats().PreemptEvicted)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if n := e.NumFlows(); n != 0 {
		t.Fatalf("%d flows leaked: a departure skipped a live flow", n)
	}
}

// TestServeConcurrentNilContext is the regression test for the nil-context
// panic: ServeConcurrent delegated to Serve before normalising ctx.
func TestServeConcurrentNilContext(t *testing.T) {
	topo, g := testMesh(t, 2, 2)
	e, err := New(Config{Graph: g, Frame: testFrame(t, 8), MILP: milp.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(WorkloadConfig{Topo: topo, Calls: 10, ArrivalRate: 10, MeanHolding: time.Second,
		SlotsPerLink: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 the nil context is the point of the test
	st, err := ServeConcurrent(nil, e, w, ServeOptions{})
	if err != nil || st.Offered == 0 {
		t.Fatalf("nil-context replay: %+v, %v", st, err)
	}
}
