package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

// Trace event kinds. The A/B payload fields carry kind-specific values,
// documented per constant; unused payload fields are zero.
const (
	// KindSlotStart marks a TDMA slot window opening at a node.
	// A = the node's clock error at the window start in ns, B = queue depth
	// at slot open.
	KindSlotStart Kind = iota + 1
	// KindGuardOverrun marks a slot window whose clock error exceeded the
	// guard interval. A = sync error ns, B = guard ns.
	KindGuardOverrun
	// KindTX marks a transmission entering the air. A = payload bytes,
	// B = airtime ns.
	KindTX
	// KindTXAttempt marks a DCF node winning its backoff and attempting a
	// transmission. A = retry count.
	KindTXAttempt
	// KindDefer marks a DCF access deferral (medium busy at access, or a
	// backoff interrupted by carrier sense). A = 0 busy-at-access,
	// 1 = interrupted countdown.
	KindDefer
	// KindCollision marks a reception destroyed by interference. A = payload
	// bytes.
	KindCollision
	// KindViolation marks a scheduled TDMA reception collided on air — the
	// paper's R6 metric. A = payload bytes.
	KindViolation
	// KindResync marks a time-sync beacon round reaching a node. A = the
	// node's post-resync clock error ns.
	KindResync
	// KindProbe marks a capacity-search admission probe verdict. A = offered
	// load k, B = 1 pass / 0 fail. Label carries the probe phase
	// ("analytic"/"full").
	KindProbe
	// KindAbort marks the early-abort monitor proving, during a run, that
	// some flow cannot recover toll quality.
	KindAbort
	// KindMark is a free-form annotation (e.g. the experiment id wrapping a
	// meshbench run); only Label is meaningful.
	KindMark
)

// String returns the stable schema name of the kind, used in trace output.
func (k Kind) String() string {
	switch k {
	case KindSlotStart:
		return "slot_start"
	case KindGuardOverrun:
		return "guard_overrun"
	case KindTX:
		return "tx"
	case KindTXAttempt:
		return "tx_attempt"
	case KindDefer:
		return "defer"
	case KindCollision:
		return "collision"
	case KindViolation:
		return "violation"
	case KindResync:
		return "resync"
	case KindProbe:
		return "probe"
	case KindAbort:
		return "abort"
	case KindMark:
		return "mark"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one trace record. It is a plain value (no pointers beyond the
// Label string header) so the ring buffer stores events without per-event
// allocation. Node/Link/Slot/Frame are -1 when not applicable.
type Event struct {
	T     time.Duration // virtual time of the event
	Kind  Kind
	Node  int32 // node id, -1 if n/a
	Link  int32 // link index, -1 if n/a
	Slot  int32 // slot index within the frame, -1 if n/a
	Frame int64 // frame number, -1 if n/a
	A, B  int64 // kind-specific payload (see Kind docs)
	Label string
}

// Trace is a bounded ring buffer of Events. When full, new events overwrite
// the oldest — a crash-box tail of the run, not an unbounded log. The nil
// Trace discards everything, so instrumented paths emit unconditionally.
// Emit is mutex-guarded (concurrent scenario runs share one sink)
// and allocation-free.
type Trace struct {
	mu    sync.Mutex
	buf   []Event
	next  int    // ring write cursor
	total uint64 // events emitted over the trace's lifetime
}

// DefaultTraceCap is the ring capacity used by the CLI -trace flag.
const DefaultTraceCap = 1 << 16

// NewTrace returns a trace retaining the last cap events (minimum 1).
func NewTrace(cap int) *Trace {
	if cap < 1 {
		cap = 1
	}
	return &Trace{buf: make([]Event, 0, cap)}
}

// Emit appends an event, overwriting the oldest when the ring is full.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next++
		if t.next == cap(t.buf) {
			t.next = 0
		}
	}
	t.total++
	t.mu.Unlock()
}

// Total returns how many events were emitted over the trace's lifetime,
// including any the ring has since overwritten.
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many emitted events the ring has overwritten.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// Events returns the retained events in emission order (oldest first), as a
// copy safe to hold across further Emits.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) { // wrapped: oldest is at the write cursor
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// WriteJSONL writes the retained events as JSON Lines, one object per event,
// oldest first. Fields with -1/zero "not applicable" values are still
// written, keeping every line's shape identical for line-oriented tooling.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		// Hand-rolled for stable field order; Label is the only field
		// needing escaping and is always a known identifier-like string.
		_, err := fmt.Fprintf(bw,
			`{"t_ns":%d,"kind":%q,"node":%d,"link":%d,"slot":%d,"frame":%d,"a":%d,"b":%d,"label":%q}`+"\n",
			e.T.Nanoseconds(), e.Kind.String(), e.Node, e.Link, e.Slot, e.Frame, e.A, e.B, e.Label)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
