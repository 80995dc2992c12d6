// Package obs is the observability layer of the emulated mesh: a typed
// metrics registry (counters, gauges, histograms) and a bounded structured
// trace of per-frame/per-slot events (internal/obs/trace.go).
//
// The layer is built around one invariant: **disabled observability costs
// nothing**. Every handle type no-ops on a nil receiver, so instrumented hot
// paths (the sim kernel, the medium, the three MACs, the measurement
// pipeline) call straight through handles they resolved once at construction
// time — when nothing is attached the handles are nil and each call is a
// single branch, zero allocations (pinned by TestNilSinkZeroAllocs and the
// BenchmarkObs* benchmarks). Observation never feeds back into simulation
// state, so enabling metrics cannot change any experiment table.
//
// Metric updates are atomic and trace appends are mutex-guarded, so one
// registry can safely aggregate across meshbench's concurrent scenario runs
// or the concurrent zone solves of the partitioned planner.
//
// Components resolve their sink once, when they are built: the process
// default installed by SetDefault/SetDefaultTrace (what cmd/meshbench and
// cmd/meshsim install for -metrics-out/-trace). With none installed,
// observability is off. The admission engine is the one exception: it takes
// its registry explicitly (admit.Config.Registry), so a server can run
// engines that report to different registries.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The nil Counter discards
// all updates, so call sites need no enabled-check of their own.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Gauge is a last-value-wins metric. The nil Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Histogram is a fixed-width histogram over [min, max); out-of-range
// observations land in the first or last bin.
// The nil Histogram discards all observations. Observations are
// mutex-guarded and allocation-free.
type Histogram struct {
	mu     sync.Mutex
	min    float64
	max    float64
	counts []uint64
	total  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := int(float64(len(h.counts)) * (x - h.min) / (h.max - h.min))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
	h.mu.Unlock()
}

// Registry holds named metrics. Handles are get-or-create and stable for the
// registry's lifetime, so components resolve them once at construction and
// update lock-free afterwards. All methods are safe on a nil *Registry: they
// return nil handles, which no-op.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given layout
// on first use (an existing histogram keeps its original layout). Returns
// nil on a nil registry or a degenerate layout.
func (r *Registry) Histogram(name string, minV, maxV float64, bins int) *Histogram {
	if r == nil || bins <= 0 || maxV <= minV {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{min: minV, max: maxV, counts: make([]uint64, bins)}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place. Existing handles stay
// valid, so long-lived components keep counting into the same cells — this
// is what cmd/meshbench uses to scope one registry to per-experiment
// summaries.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counts {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.mu.Lock()
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.total = 0
		h.mu.Unlock()
	}
}

// HistogramSnapshot is one histogram's state in a Snapshot.
type HistogramSnapshot struct {
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	Total  uint64   `json:"total"`
	Counts []uint64 `json:"counts"`
}

// Snapshot is a point-in-time copy of a registry, JSON-serializable with
// deterministic key order (encoding/json sorts map keys).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current metric values. Zero-valued metrics are kept:
// a counter that exists but never fired is itself a signal.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) > 0 {
		s.Counters = make(map[string]uint64, len(r.counts))
		for name, c := range r.counts {
			s.Counters[name] = c.v.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.v.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			h.mu.Lock()
			hs := HistogramSnapshot{Min: h.min, Max: h.max, Total: h.total,
				Counts: append([]uint64(nil), h.counts...)}
			h.mu.Unlock()
			s.Histograms[name] = hs
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// Process-default sink. Installed by the CLI front ends when -metrics-out or
// -trace is set; nil (observability off) otherwise. Every instrumented
// component except the admission engine reads these when it is built.
var (
	defaultReg   atomic.Pointer[Registry]
	defaultTrace atomic.Pointer[Trace]
)

// Default returns the process-default registry, or nil when none installed.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs (or, with nil, removes) the process-default registry.
// Components capture the default at construction time, so install it before
// building the kernels and networks that should report into it.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// DefaultTrace returns the process-default trace, or nil when none.
func DefaultTrace() *Trace { return defaultTrace.Load() }

// SetDefaultTrace installs (or removes) the process-default trace sink.
func SetDefaultTrace(t *Trace) { defaultTrace.Store(t) }
