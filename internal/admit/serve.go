package admit

import (
	"context"
	"errors"
	"sync"
	"time"
)

// BatchMax caps the arrivals one ServeConcurrent worker decides with one
// joint AdmitBatch call. A worker batches whatever is queued when its solver
// frees up, so batches form exactly when arrivals outpace decisions.
const BatchMax = 16

// defragPeriod is the period of ServeConcurrent's background re-packs.
const defragPeriod = 5 * time.Millisecond

// ServeOptions parameterizes ServeConcurrent.
type ServeOptions struct {
	// Workers is the number of admission workers. 0 or 1 replays through
	// Serve: one caller, byte-identical run to run.
	Workers int
	// Defrag runs background solver-driven re-packs (Engine.TryDefrag)
	// every defragPeriod while the replay is in flight.
	Defrag bool
}

// ServeConcurrent replays the workload against the engine across several
// admission workers. Arrivals are sharded by the flow's home zone, so all
// events of one flow stay on one worker in order; each worker gathers the
// arrivals queued while its previous decision ran and decides them with one
// joint AdmitBatch call. With Workers <= 1 and Defrag off the replay
// delegates to Serve and is byte-identical run to run; otherwise the verdict
// set is pinned by the differential tests, but per-call ordering and latency
// are scheduler-dependent. On a preemptive engine an eviction may hit a flow
// another worker admitted; that worker's departure then finds the flow gone
// and skips it.
func ServeConcurrent(ctx context.Context, e *Engine, w *Workload, opts ServeOptions) (ServeStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Workers <= 1 && !opts.Defrag {
		return Serve(ctx, e, w)
	}
	workers := max(opts.Workers, 1)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	queues := make([]chan Event, workers)
	for i := range queues {
		// Deep enough that a worker's solve rarely stalls the dispatcher,
		// bounded so memory stays bounded under overload: the dispatcher
		// blocks when a queue is full.
		queues[i] = make(chan Event, 128)
	}
	results := make([]ServeStats, workers)
	errs := make([]error, workers)

	var workerWg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		workerWg.Add(1)
		go func(wi int) {
			defer workerWg.Done()
			errs[wi] = serveWorker(runCtx, cancel, e, queues[wi], &results[wi])
		}(wi)
	}

	var defragWg sync.WaitGroup
	if opts.Defrag {
		defragWg.Add(1)
		go func() {
			defer defragWg.Done()
			t := time.NewTicker(defragPeriod)
			defer t.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-t.C:
					// Best-effort: a failed or stale pass just means no win.
					_, _ = e.TryDefrag(runCtx)
				}
			}
		}()
	}

	// Dispatch in event order. A departure goes to the worker that got the
	// arrival (recorded here — dispatch order guarantees the arrival is
	// mapped first), so per-flow event ordering survives the sharding.
	homeOf := make(map[FlowID]int, len(w.Events)/2)
	for _, ev := range w.Events {
		if runCtx.Err() != nil {
			break
		}
		wi := 0
		if ev.Arrive {
			wi = e.HomeZone(ev.Flow) % workers
			homeOf[ev.Flow.ID] = wi
		} else {
			var ok bool
			if wi, ok = homeOf[ev.Flow.ID]; !ok {
				continue
			}
		}
		queues[wi] <- ev
		depth := 0
		for _, q := range queues {
			depth += len(q)
		}
		e.gQueue.Set(int64(depth))
	}
	for _, q := range queues {
		close(q)
	}
	workerWg.Wait()
	cancel()
	defragWg.Wait()
	e.gQueue.Set(0)

	var st ServeStats
	for i := range results {
		st.Offered += results[i].Offered
		st.Admitted += results[i].Admitted
		st.Rejected += results[i].Rejected
		st.Fast += results[i].Fast
		st.Warm += results[i].Warm
		st.Cold += results[i].Cold
		st.Witness += results[i].Witness
		st.Preempted += results[i].Preempted
		st.Elapsed += results[i].Elapsed
		for _, v := range results[i].Latency.Values() {
			st.Latency.Add(v)
		}
		for c := range st.ClassLatency {
			for _, v := range results[i].ClassLatency[c].Values() {
				st.ClassLatency[c].Add(v)
			}
		}
	}
	st.Wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, ctx.Err()
}

// serveWorker consumes one shard's event queue. Arrivals accumulate into a
// batch that is flushed — decided by one joint AdmitBatch call — when the
// queue momentarily empties (nothing else to amortize over), the batch hits
// BatchMax, or a departure needs the flows decided first. After an error the
// worker keeps draining its queue so the dispatcher never blocks on a full
// channel; the cancelled context stops the dispatch loop itself.
func serveWorker(ctx context.Context, cancel context.CancelFunc, e *Engine, q chan Event, st *ServeStats) error {
	var batch []Flow
	var werr error
	fail := func(err error) {
		if werr == nil {
			werr = err
		}
		cancel()
	}
	flush := func() {
		if len(batch) == 0 || werr != nil {
			return
		}
		decs, err := e.AdmitBatch(ctx, batch)
		for i, d := range decs {
			st.Record(batch[i], d)
		}
		batch = batch[:0]
		if err != nil {
			fail(err)
		}
	}
	for ev := range q {
		if werr != nil {
			continue // drain mode
		}
		if ctx.Err() != nil {
			fail(ctx.Err())
			continue
		}
		if !ev.Arrive {
			flush()
			if werr != nil || !st.Depart(ev.Flow.ID) {
				continue
			}
			s := time.Now()
			err := e.Release(ev.Flow.ID)
			if errors.Is(err, ErrUnknownFlow) && e.cfg.Preempt {
				// Evicted by a preemptive admission on another worker, whose
				// Record could not reach this worker's live set.
				continue
			}
			if err != nil {
				fail(err)
				continue
			}
			st.Elapsed += time.Since(s)
			continue
		}
		batch = append(batch, ev.Flow)
		if len(batch) >= BatchMax || len(q) == 0 {
			flush()
		}
	}
	flush()
	return werr
}
