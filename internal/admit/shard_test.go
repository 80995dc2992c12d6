package admit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/topology"
)

// clusterMesh builds n isolated 2x2 clusters, 1000 m apart — far beyond the
// 250 m interference range, so the conflict graph decomposes into n
// independent components and a 500 m zoning puts each cluster in its own
// zone. Flows never cross clusters (there are no routes between them), so a
// flow's verdict depends only on its own cluster's occupancy — deterministic
// under any interleaving of decisions across clusters. That makes the
// serial-vs-sharded differential exact rather than probabilistic.
func clusterMesh(t *testing.T, n int) (*topology.Network, *conflict.Graph) {
	t.Helper()
	net := topology.NewNetwork()
	for c := 0; c < n; c++ {
		off := float64(c) * 1000
		a := net.AddNode(off, 0)
		b := net.AddNode(off+100, 0)
		d := net.AddNode(off, 100)
		e := net.AddNode(off+100, 100)
		for _, pair := range [][2]topology.NodeID{{a, b}, {a, d}, {b, e}, {d, e}} {
			if _, _, err := net.AddBidirectional(pair[0], pair[1], topology.DefaultRateBps); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := net.SetGateway(0); err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelGeometric, InterferenceRange: 250})
	if err != nil {
		t.Fatal(err)
	}
	return net, g
}

// TestConcurrentAdmitMonolithic drives concurrent Admit/Release on a
// monolithic engine: it is lockable like any other (one zone lock), so the
// calls serialize and the final state passes the full invariant check. Run
// under -race by `make admit-smoke`.
func TestConcurrentAdmitMonolithic(t *testing.T) {
	topo, g := testMesh(t, 3, 3)
	e, err := New(Config{Graph: g, Frame: testFrame(t, 24), MaxWindow: 12,
		MILP: milp.Options{MaxNodes: 20_000}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var live []FlowID
			for r := 0; r < 60; r++ {
				path, err := topo.ShortestPath(topology.NodeID(w), topology.NodeID(8-(w+r)%4))
				if err != nil {
					errCh <- err
					return
				}
				slots := make([]int, len(path))
				for i := range slots {
					slots[i] = 1 + r%2
				}
				id := FlowID(fmt.Sprintf("m%d-r%d", w, r))
				dec, err := e.Admit(context.Background(), Flow{ID: id, Path: path, Slots: slots})
				if err != nil {
					errCh <- fmt.Errorf("admit %s: %w", id, err)
					return
				}
				if dec.Admitted {
					live = append(live, id)
				}
				if len(live) > 2 {
					if err := e.Release(live[0]); err != nil {
						errCh <- fmt.Errorf("release %s: %w", live[0], err)
						return
					}
					live = live[1:]
				}
			}
			for _, id := range live {
				if err := e.Release(id); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := e.Check(); err != nil {
		t.Fatalf("invariants after concurrent admits: %v", err)
	}
	if n := e.NumFlows(); n != 0 {
		t.Fatalf("%d flows leaked", n)
	}
	st := e.Stats()
	if st.Admitted == 0 || st.Warm+st.Cold == 0 {
		t.Fatalf("run exercised no solver admissions: %+v", st)
	}
}

// shardTestEngine builds a zoned engine over the cluster mesh.
func shardTestEngine(t *testing.T, g *conflict.Graph) *Engine {
	t.Helper()
	e, err := New(Config{
		Graph:     g,
		Frame:     testFrame(t, 32),
		MaxWindow: 12,
		Zoned:     true,
		ZoneSize:  500,
		MILP:      milp.Options{MaxNodes: 200_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDifferentialShardedVsSerial pins the engine's determinism contract
// under concurrency: over a workload of independent clusters, a concurrent
// batched driver's per-flow verdicts equal a sequential driver's on an
// identical engine, and the final schedule is valid. Run under -race by
// `make admit-smoke`.
func TestDifferentialShardedVsSerial(t *testing.T) {
	topo, g := clusterMesh(t, 6)
	// Long holding relative to the arrival span keeps many calls live at
	// once, so each 12-slot cluster saturates and later calls get rejected —
	// both verdict kinds appear in the differential.
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 300, ArrivalRate: 50, MeanHolding: 3 * time.Second,
		SlotsPerLink: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Serial oracle: one goroutine, plain Admit/Release in event order.
	serialVerdicts := func(e *Engine) map[FlowID]bool {
		got := make(map[FlowID]bool)
		for _, ev := range w.Events {
			if !ev.Arrive {
				if got[ev.Flow.ID] {
					if err := e.Release(ev.Flow.ID); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			dec, err := e.Admit(context.Background(), ev.Flow)
			if err != nil {
				t.Fatal(err)
			}
			got[ev.Flow.ID] = dec.Admitted
		}
		if err := e.Check(); err != nil {
			t.Fatalf("serial engine invariants: %v", err)
		}
		return got
	}

	// Concurrent run: shard events by home zone across 8 goroutines — the
	// same routing ServeConcurrent's dispatcher uses — and replay each shard
	// with batched joint admissions, recording every verdict.
	shardedVerdicts := func(e *Engine) map[FlowID]bool {
		const workers = 8
		shards := make([][]Event, workers)
		home := make(map[FlowID]int)
		for _, ev := range w.Events {
			wi := 0
			if ev.Arrive {
				wi = e.HomeZone(ev.Flow) % workers
				home[ev.Flow.ID] = wi
			} else {
				var ok bool
				if wi, ok = home[ev.Flow.ID]; !ok {
					continue
				}
			}
			shards[wi] = append(shards[wi], ev)
		}
		got := make(map[FlowID]bool)
		var mu sync.Mutex
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(events []Event) {
				defer wg.Done()
				local := make(map[FlowID]bool)
				var batch []Flow
				flush := func() error {
					if len(batch) == 0 {
						return nil
					}
					decs, err := e.AdmitBatch(context.Background(), batch)
					if err != nil {
						return err
					}
					mu.Lock()
					for i, d := range decs {
						got[batch[i].ID] = d.Admitted
						local[batch[i].ID] = d.Admitted
					}
					mu.Unlock()
					batch = batch[:0]
					return nil
				}
				for _, ev := range events {
					if !ev.Arrive {
						if err := flush(); err != nil {
							errCh <- err
							return
						}
						if local[ev.Flow.ID] {
							if err := e.Release(ev.Flow.ID); err != nil {
								errCh <- err
								return
							}
						}
						continue
					}
					batch = append(batch, ev.Flow)
					if len(batch) >= 4 {
						if err := flush(); err != nil {
							errCh <- err
							return
						}
					}
				}
				if err := flush(); err != nil {
					errCh <- err
				}
			}(shards[wi])
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if err := e.Check(); err != nil {
			t.Fatalf("sharded engine invariants: %v", err)
		}
		return got
	}

	serial := serialVerdicts(shardTestEngine(t, g))
	sharded := shardedVerdicts(shardTestEngine(t, g))

	if len(serial) != len(sharded) {
		t.Fatalf("decided %d flows serially, %d sharded", len(serial), len(sharded))
	}
	diffs := 0
	for id, want := range serial {
		if got, ok := sharded[id]; !ok || got != want {
			diffs++
			t.Errorf("flow %s: serial admitted=%v, sharded admitted=%v (present=%v)", id, want, got, ok)
		}
	}
	admits := 0
	for _, adm := range serial {
		if adm {
			admits++
		}
	}
	if admits == 0 || admits == len(serial) {
		t.Fatalf("degenerate workload: %d/%d admitted — no rejection pressure", admits, len(serial))
	}
	t.Logf("%d flows, %d admitted, %d verdict diffs", len(serial), admits, diffs)
}

// TestAdmitBatchMatchesSequential drives the joint decision path and checks
// verdict preservation: a batch's decisions equal what sequential Admit
// calls produce on an identical engine, both when the joint solve admits
// everything and when it must fall back to individual verdicts.
func TestAdmitBatchMatchesSequential(t *testing.T) {
	topo, g := clusterMesh(t, 3)
	mkFlows := func() []Flow {
		var flows []Flow
		for c := 0; c < 3; c++ {
			base := topology.NodeID(c * 4)
			path, err := topo.ShortestPath(base, base+1)
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, Flow{
				ID:    FlowID(fmt.Sprintf("f-%d", c)),
				Path:  path,
				Slots: []int{4},
			})
		}
		return flows
	}
	ctx := context.Background()

	// All feasible: the joint path admits every member.
	eJoint := shardTestEngine(t, g)
	decs, err := eJoint.AdmitBatch(ctx, mkFlows())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		if !d.Admitted {
			t.Fatalf("batch member %d rejected: %+v", i, d)
		}
	}
	if st := eJoint.Stats(); st.Batched != 3 {
		t.Fatalf("Batched = %d, want 3", st.Batched)
	}
	if err := eJoint.Check(); err != nil {
		t.Fatal(err)
	}

	// Saturating batch: members of one cluster that cannot all fit under the
	// 12-slot window cap (4 links of a square all conflict; 4 flows x 4
	// slots = 16 > 12). Joint reject must fall back and admit the prefix a
	// sequential run admits.
	path01, err := topo.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var heavy []Flow
	for i := 0; i < 4; i++ {
		heavy = append(heavy, Flow{ID: FlowID(fmt.Sprintf("h-%d", i)), Path: path01, Slots: []int{4}})
	}
	eBatch := shardTestEngine(t, g)
	batchDecs, err := eBatch.AdmitBatch(ctx, heavy)
	if err != nil {
		t.Fatal(err)
	}
	eSeq := shardTestEngine(t, g)
	var seqDecs []Decision
	for _, f := range heavy {
		d, err := eSeq.Admit(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		seqDecs = append(seqDecs, d)
	}
	if len(batchDecs) != len(seqDecs) {
		t.Fatalf("batch decided %d, sequential %d", len(batchDecs), len(seqDecs))
	}
	for i := range batchDecs {
		if batchDecs[i].Admitted != seqDecs[i].Admitted {
			t.Errorf("flow %d: batch admitted=%v, sequential=%v",
				i, batchDecs[i].Admitted, seqDecs[i].Admitted)
		}
	}
	if err := eBatch.Check(); err != nil {
		t.Fatal(err)
	}
	if eBatch.Window() != eSeq.Window() {
		t.Errorf("windows diverge after fallback: batch %d, sequential %d",
			eBatch.Window(), eSeq.Window())
	}

	// Intra-batch duplicate IDs fail the whole call up front.
	if _, err := shardTestEngine(t, g).AdmitBatch(ctx, []Flow{heavy[0], heavy[0]}); !errors.Is(err, ErrBadFlow) {
		t.Errorf("duplicate batch IDs: err = %v, want ErrBadFlow", err)
	}
	// AdmitBatch also works on monolithic engines.
	ePlain, err := New(Config{Graph: g, Frame: testFrame(t, 32), MaxWindow: 12,
		MILP: milp.Options{MaxNodes: 200_000}})
	if err != nil {
		t.Fatal(err)
	}
	plainDecs, err := ePlain.AdmitBatch(ctx, mkFlows())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plainDecs {
		if !d.Admitted {
			t.Fatalf("plain batch member %d rejected: %+v", i, d)
		}
	}
	if err := ePlain.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSoak runs 500 rounds of concurrent Admit/Release across 4
// goroutines on the zoned engine and asserts the final state passes the
// full invariant check: schedule valid against the whole conflict graph,
// demand exactly carried, occupancy index consistent. Run under -race by
// `make admit-smoke`.
func TestConcurrentSoak(t *testing.T) {
	topo, g := clusterMesh(t, 4)
	e := shardTestEngine(t, g)
	const rounds = 500
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine churns its own cluster: admit up to three
			// flows, then release the oldest, round-robin over the cluster's
			// node pairs.
			base := topology.NodeID(w * 4)
			var live []FlowID
			for r := 0; r < rounds; r++ {
				dst := base + topology.NodeID(1+r%3)
				path, err := topo.ShortestPath(base, dst)
				if err != nil {
					errCh <- err
					return
				}
				slots := make([]int, len(path))
				for i := range slots {
					slots[i] = 1 + r%2
				}
				id := FlowID(fmt.Sprintf("w%d-r%d", w, r))
				dec, err := e.Admit(context.Background(), Flow{ID: id, Path: path, Slots: slots})
				if err != nil {
					errCh <- fmt.Errorf("admit %s: %w", id, err)
					return
				}
				if dec.Admitted {
					live = append(live, id)
				}
				if len(live) > 3 {
					if err := e.Release(live[0]); err != nil {
						errCh <- fmt.Errorf("release %s: %w", live[0], err)
						return
					}
					live = live[1:]
				}
			}
			for _, id := range live {
				if err := e.Release(id); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
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
	if e.Window() != 0 {
		t.Fatalf("window %d after all releases", e.Window())
	}
	st := e.Stats()
	if st.Admitted == 0 {
		t.Fatal("soak admitted nothing")
	}
	t.Logf("soak: %+v", st)
}

// TestServeConcurrentReplay exercises the worker/dispatcher loop end to end
// on the zoned engine and checks the bookkeeping reconciles.
func TestServeConcurrentReplay(t *testing.T) {
	topo, g := clusterMesh(t, 4)
	e := shardTestEngine(t, g)
	w, err := Generate(WorkloadConfig{
		Topo: topo, Calls: 120, ArrivalRate: 40, MeanHolding: 250 * time.Millisecond,
		SlotsPerLink: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeConcurrent(context.Background(), e, w, ServeOptions{Workers: 8, BatchMax: 8, Defrag: true, DefragEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered == 0 || st.Admitted == 0 {
		t.Fatalf("degenerate replay: %+v", st)
	}
	if st.Admitted+st.Rejected != st.Offered {
		t.Fatalf("verdicts do not reconcile: %+v", st)
	}
	if st.Fast+st.Warm+st.Cold+st.Rejected < st.Offered-st.Rejected {
		t.Fatalf("tier counts short: %+v", st)
	}
	if st.Wall <= 0 {
		t.Fatalf("Wall not stamped: %+v", st)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	es := e.Stats()
	t.Logf("replay: %+v; engine %+v", st, es)
}

// TestReleaseStorm interleaves admissions with a storm of releases across
// goroutines on the zoned engine, with compaction forced on every release,
// and checks the engine never corrupts its schedule. Run under -race by
// `make admit-smoke`.
func TestReleaseStorm(t *testing.T) {
	topo, g := clusterMesh(t, 4)
	e, err := New(Config{
		Graph: g, Frame: testFrame(t, 32), MaxWindow: 16,
		Zoned: true, ZoneSize: 500,
		MILP: milp.Options{MaxNodes: 200_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.compactEvery = 1
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := topology.NodeID(w * 4)
			path, err := topo.ShortestPath(base, base+3)
			if err != nil {
				errCh <- err
				return
			}
			slots := make([]int, len(path))
			for i := range slots {
				slots[i] = 1
			}
			for r := 0; r < 120; r++ {
				id := FlowID(fmt.Sprintf("storm-%d-%d", w, r))
				dec, err := e.Admit(ctx, Flow{ID: id, Path: path, Slots: slots})
				if err != nil {
					errCh <- err
					return
				}
				if dec.Admitted {
					// Release immediately: every release triggers a compaction
					// (compactEvery 1), interleaving re-packs with the other
					// goroutines' admissions.
					if err := e.Release(id); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := e.Check(); err != nil {
		t.Fatalf("invariants after storm: %v", err)
	}
	st := e.Stats()
	if st.Releases == 0 || st.Compactions == 0 {
		t.Fatalf("storm exercised nothing: %+v", st)
	}
}
