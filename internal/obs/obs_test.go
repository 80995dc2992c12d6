package obs

import (
	"strings"
	"testing"
	"time"
)

// TestNilSinkZeroAllocs pins the headline guarantee: every hot-path update
// through a nil handle is allocation-free. The sim kernel, medium and MACs
// call these unconditionally, so any alloc here would leak into the pinned
// 0-allocs/op benchmarks of those packages.
func TestNilSinkZeroAllocs(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
		s *Trace
	)
	ev := Event{T: time.Millisecond, Kind: KindTX, Node: 1, Link: -1, Slot: 2, Frame: 3}
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		g.Set(42)
		h.Observe(1.5)
		s.Emit(ev)
	}); n != 0 {
		t.Errorf("nil-sink updates allocate %.1f/op, want 0", n)
	}
	// Handle resolution through a nil registry is equally free.
	if n := testing.AllocsPerRun(1000, func() {
		_ = r.Counter("x")
		_ = r.Gauge("x")
		_ = r.Histogram("x", 0, 1, 8)
	}); n != 0 {
		t.Errorf("nil-registry lookups allocate %.1f/op, want 0", n)
	}
}

// TestEnabledSinkZeroAllocsSteadyState checks that live handles are also
// allocation-free after warm-up, so enabling metrics perturbs wall clock but
// not the allocation profile of the data plane.
func TestEnabledSinkZeroAllocsSteadyState(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 0, 100, 32)
	s := NewTrace(64)
	ev := Event{Kind: KindSlotStart, Node: 3, A: 250, B: 2}
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(-9)
		h.Observe(55)
		s.Emit(ev)
	}); n != 0 {
		t.Errorf("enabled-sink updates allocate %.1f/op, want 0", n)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("counter handle not stable across lookups")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("gauge handle not stable across lookups")
	}
	if r.Histogram("a", 0, 1, 4) != r.Histogram("a", 0, 1, 4) {
		t.Error("histogram handle not stable across lookups")
	}
	if r.Histogram("bad", 1, 1, 4) != nil {
		t.Error("degenerate histogram layout accepted")
	}
	if r.Histogram("bad2", 0, 1, 0) != nil {
		t.Error("zero-bin histogram accepted")
	}
}

func TestSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	g := r.Gauge("depth")
	h := r.Histogram("err_ns", 0, 1000, 10)
	c.Add(3)
	g.Set(-2)
	h.Observe(150)
	h.Observe(9999) // clamps into the top bin
	h.Observe(-5)   // clamps into the bottom bin

	s := r.Snapshot()
	if s.Counters["pkts"] != 3 {
		t.Errorf("counter snapshot = %d, want 3", s.Counters["pkts"])
	}
	if s.Gauges["depth"] != -2 {
		t.Errorf("gauge snapshot = %d, want -2", s.Gauges["depth"])
	}
	hs := s.Histograms["err_ns"]
	if hs.Total != 3 {
		t.Errorf("histogram total = %d, want 3", hs.Total)
	}
	if hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Counts[9] != 1 {
		t.Errorf("histogram bins = %v, want clamped edges + bin 1", hs.Counts)
	}

	r.Reset()
	if s := r.Snapshot(); s.Counters["pkts"] != 0 || s.Gauges["depth"] != 0 || s.Histograms["err_ns"].Total != 0 {
		t.Errorf("reset did not zero metrics: %+v", s)
	}
	c.Inc() // handles must survive a reset
	if r.Snapshot().Counters["pkts"] != 1 {
		t.Error("handle dead after reset")
	}
	var sb strings.Builder
	if err := r.Snapshot().WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(sb.String(), `"pkts": 1`) {
		t.Errorf("JSON missing counter: %s", sb.String())
	}
}

func TestTraceRingWrap(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{A: int64(i)})
	}
	if tr.total != 5 {
		t.Errorf("total = %d, want 5", tr.total)
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.A != int64(i+2) {
			t.Errorf("event %d A = %d, want %d (oldest-first order)", i, e.A, i+2)
		}
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(Event{T: 5 * time.Millisecond, Kind: KindGuardOverrun, Node: 2, Link: 1, Slot: 4, Frame: 7, A: 150000, B: 100000})
	tr.Emit(Event{Kind: KindMark, Node: -1, Link: -1, Slot: -1, Frame: -1, Label: "R6"})
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	want := `{"t_ns":5000000,"kind":"guard_overrun","node":2,"link":1,"slot":4,"frame":7,"a":150000,"b":100000,"label":""}`
	if lines[0] != want {
		t.Errorf("line 0:\n got %s\nwant %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"kind":"mark"`) || !strings.Contains(lines[1], `"label":"R6"`) {
		t.Errorf("line 1 missing mark fields: %s", lines[1])
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindSlotStart, KindGuardOverrun, KindTX, KindTXAttempt,
		KindDefer, KindCollision, KindViolation, KindResync, KindProbe, KindAbort, KindMark}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no schema name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("unknown kind string = %q", Kind(200).String())
	}
}

func TestDefaultInstallation(t *testing.T) {
	if Default() != nil || DefaultTrace() != nil {
		t.Fatal("defaults non-nil at test start")
	}
	r := NewRegistry()
	tr := NewTrace(4)
	SetDefault(r)
	SetDefaultTrace(tr)
	defer func() {
		SetDefault(nil)
		SetDefaultTrace(nil)
	}()
	if Default() != r || DefaultTrace() != tr {
		t.Error("Default/DefaultTrace did not return the installed sinks")
	}
}

func BenchmarkObsNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsNilTraceEmit(b *testing.B) {
	var tr *Trace
	ev := Event{Kind: KindSlotStart, Node: 1, A: 100, B: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}

func BenchmarkObsCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsTraceEmit(b *testing.B) {
	tr := NewTrace(1 << 12)
	ev := Event{Kind: KindSlotStart, Node: 1, A: 100, B: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}
