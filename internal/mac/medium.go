// Package mac models the shared radio medium that both MAC implementations
// (internal/mac/dcf and internal/mac/tdmaemu) transmit over.
//
// The medium uses the protocol interference model on the mesh geometry: a
// transmission is audible at every node within the interference range of the
// transmitter; a reception fails (collides) when any other transmission
// audible at the receiver overlaps it in time. Carrier sense and collision
// detection both derive from audibility, so hidden-terminal effects arise
// naturally.
//
// Node IDs are dense indices (see topology.NodeID), and the topology is
// static once the medium is built, so all per-node state lives in slices and
// pairwise audibility is a precomputed bitset matrix with cached per-node
// audience lists. Transmission records (and their end-of-airtime closures)
// are pooled, making Transmit/finish free of map operations and, in steady
// state, of allocations.
package mac

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"wimesh/internal/obs"
	"wimesh/internal/sim"
	"wimesh/internal/topology"
)

// Frame is one MAC-layer transmission unit.
type Frame struct {
	From topology.NodeID
	To   topology.NodeID
	// Bytes is the MAC payload size (the medium does not interpret it;
	// airtime is supplied by the caller).
	Bytes int
	// Payload carries caller metadata (e.g. a routed packet) end to end.
	Payload any
}

// Delivery reports the outcome of one transmission.
type Delivery struct {
	Frame Frame
	// At is the virtual time the transmission ended.
	At time.Duration
	// Collided reports that another audible transmission overlapped at the
	// receiver, destroying the frame.
	Collided bool
	// Lost reports a channel loss (frame error) drawn from the medium's
	// loss model; the receiver gets nothing, like a collision.
	Lost bool
}

// DeliverFunc receives the outcome of each transmission addressed to a node.
type DeliverFunc func(Delivery)

type transmission struct {
	frame      Frame
	start, end time.Duration
	// hit is set when an overlapping audible transmission is detected at
	// the receiver.
	hit bool
	// idx is the transmission's current position in Medium.active.
	idx int
	// heard lists the nodes whose busy counts this transmission raised:
	// the shared audience list of the transmitter, or scratch for a
	// protected exchange.
	heard []topology.NodeID
	// scratch backs heard for protected exchanges; it is retained across
	// pool cycles so steady-state protected transmissions do not allocate.
	scratch []topology.NodeID
	// finishFn is the end-of-airtime closure, built once per pooled
	// transmission so Transmit never allocates a new closure.
	finishFn func()
}

// Medium is the shared channel. Create with NewMedium. The topology must not
// gain nodes after the medium is built (audibility is precomputed).
type Medium struct {
	net    *topology.Network
	kernel *sim.Kernel
	// rangeM is the interference (and carrier-sense) range in meters.
	rangeM   float64
	numNodes int

	// active holds in-flight transmissions; each knows its index.
	active []*transmission
	// pool recycles transmission records and their finish closures.
	pool []*transmission

	// Dense per-node state, indexed by NodeID.
	// busyCount[n] is the number of active transmissions audible at n.
	busyCount []int
	// busyEpoch[n] increments whenever the channel at n turns busy; DCF
	// uses it to detect interrupted interframe waits.
	busyEpoch []uint64
	// idleWaiters[n] run when the channel at n turns idle.
	idleWaiters [][]func()
	deliver     []DeliverFunc

	// audBits is the row-major numNodes x numNodes audibility bitset:
	// node b hears node a iff audBits[a*audWords + b/64] has bit b%64 set.
	// The diagonal is set (a node hears itself).
	audWords int
	audBits  []uint64
	// audience[n] lists the nodes audible from n (including n), ascending.
	audience [][]topology.NodeID

	// mark/markEpoch dedupe protected-audience unions without allocating.
	mark      []uint64
	markEpoch uint64

	// lossModel, when set, draws per-frame channel losses.
	lossModel func(from, to topology.NodeID) float64
	lossRNG   *rand.Rand

	// Observability handles, captured from the process default at
	// construction; nil (no-op) when observability is off. The trace emits
	// tx/collision events with frame endpoints.
	obsSent      *obs.Counter
	obsDelivered *obs.Counter
	obsCollided  *obs.Counter
	obsLost      *obs.Counter
	trace        *obs.Trace
}

// NewMedium creates a medium over the network with the given interference
// range, precomputing the pairwise audibility matrix and per-node audience
// lists from the (static) geometry.
func NewMedium(net *topology.Network, kernel *sim.Kernel, interferenceRange float64) (*Medium, error) {
	if net == nil || kernel == nil {
		return nil, errors.New("mac: nil network or kernel")
	}
	if interferenceRange <= 0 {
		return nil, fmt.Errorf("mac: non-positive interference range %g", interferenceRange)
	}
	n := net.NumNodes()
	words := (n + 63) / 64
	m := &Medium{
		net:         net,
		kernel:      kernel,
		rangeM:      interferenceRange,
		numNodes:    n,
		busyCount:   make([]int, n),
		busyEpoch:   make([]uint64, n),
		idleWaiters: make([][]func(), n),
		deliver:     make([]DeliverFunc, n),
		audWords:    words,
		audBits:     make([]uint64, n*words),
		audience:    make([][]topology.NodeID, n),
		mark:        make([]uint64, n),
	}
	if reg := obs.Default(); reg != nil {
		m.obsSent = reg.Counter("mac.tx_started")
		m.obsDelivered = reg.Counter("mac.tx_delivered")
		m.obsCollided = reg.Counter("mac.tx_collided")
		m.obsLost = reg.Counter("mac.tx_lost")
		m.trace = obs.DefaultTrace()
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				m.setAudible(topology.NodeID(a), topology.NodeID(b))
				continue
			}
			d, err := net.Distance(topology.NodeID(a), topology.NodeID(b))
			if err != nil {
				return nil, err
			}
			if d <= interferenceRange {
				m.setAudible(topology.NodeID(a), topology.NodeID(b))
			}
		}
	}
	for a := 0; a < n; a++ {
		aud := make([]topology.NodeID, 0, n)
		for b := 0; b < n; b++ {
			if m.audibleFast(topology.NodeID(a), topology.NodeID(b)) {
				aud = append(aud, topology.NodeID(b))
			}
		}
		m.audience[a] = aud
	}
	return m, nil
}

func (m *Medium) setAudible(from, at topology.NodeID) {
	m.audBits[int(from)*m.audWords+int(at)>>6] |= 1 << (uint(at) & 63)
}

// audibleFast probes the precomputed bitset; both IDs must be valid.
func (m *Medium) audibleFast(from, at topology.NodeID) bool {
	return m.audBits[int(from)*m.audWords+int(at)>>6]&(1<<(uint(at)&63)) != 0
}

func (m *Medium) hasNode(n topology.NodeID) bool {
	return n >= 0 && int(n) < m.numNodes
}

// SetLossModel installs a per-frame channel-loss model: fn returns the
// frame error rate of the (from, to) pair, and each otherwise-successful
// delivery is lost with that probability (deterministic for a seed).
func (m *Medium) SetLossModel(fn func(from, to topology.NodeID) float64, seed int64) error {
	if fn == nil {
		return errors.New("mac: nil loss model")
	}
	m.lossModel = fn
	m.lossRNG = sim.NewRNG(seed, 771)
	return nil
}

// SetReceiver registers the delivery callback of a node (one per node).
func (m *Medium) SetReceiver(n topology.NodeID, fn DeliverFunc) error {
	if fn == nil {
		return errors.New("mac: nil receiver")
	}
	if !m.hasNode(n) {
		return fmt.Errorf("mac: receiver for unknown node %d", n)
	}
	if m.deliver[n] != nil {
		return fmt.Errorf("mac: receiver for node %d already set", n)
	}
	m.deliver[n] = fn
	return nil
}

// Busy reports whether the channel is busy at node n (any audible active
// transmission, including n's own).
func (m *Medium) Busy(n topology.NodeID) bool {
	return m.hasNode(n) && m.busyCount[n] > 0
}

// BusyEpoch returns a counter that increments whenever the channel at n
// turns busy.
func (m *Medium) BusyEpoch(n topology.NodeID) uint64 {
	if !m.hasNode(n) {
		return 0
	}
	return m.busyEpoch[n]
}

// WhenIdle runs fn as soon as the channel at n is idle (immediately, via a
// zero-delay event, if it already is).
func (m *Medium) WhenIdle(n topology.NodeID, fn func()) error {
	if !m.Busy(n) {
		_, err := m.kernel.After(0, fn)
		return err
	}
	m.idleWaiters[n] = append(m.idleWaiters[n], fn)
	return nil
}

// Transmit starts a transmission of frame lasting airtime. The outcome is
// delivered to the destination's receiver callback at the end time; the
// frame is marked collided if any other audible transmission overlaps it at
// the receiver. Errors are returned for unknown nodes or non-positive
// airtime.
func (m *Medium) Transmit(frame Frame, airtime time.Duration) error {
	return m.transmit(frame, airtime, false)
}

// TransmitProtected is Transmit with an RTS/CTS-style reservation: the
// channel is additionally marked busy around the *receiver* for the whole
// exchange, so nodes hidden from the transmitter but audible at the
// receiver defer (virtual carrier sense). Collision detection is unchanged,
// so simultaneous exchange starts (RTS collisions) still destroy both.
func (m *Medium) TransmitProtected(frame Frame, airtime time.Duration) error {
	return m.transmit(frame, airtime, true)
}

func (m *Medium) transmit(frame Frame, airtime time.Duration, protect bool) error {
	if airtime <= 0 {
		return fmt.Errorf("mac: non-positive airtime %v", airtime)
	}
	// Dense-ID bounds check on the hot path; the topology lookup runs only
	// to produce the detailed error.
	if !m.hasNode(frame.From) {
		_, err := m.net.Node(frame.From)
		return err
	}
	if !m.hasNode(frame.To) {
		_, err := m.net.Node(frame.To)
		return err
	}
	now := m.kernel.Now()
	tx := m.getTx()
	tx.frame = frame
	tx.start = now
	tx.end = now + airtime
	tx.hit = false
	if protect {
		tx.heard = m.unionAudience(tx, frame.From, frame.To)
	} else {
		tx.heard = m.audience[frame.From]
	}

	// Schedule the end of the transmission before touching any shared
	// state: scheduling is the only fallible step, so a failure leaves the
	// medium exactly as it was (no stranded active entry, no raised busy
	// counts, no spurious collision marks).
	if _, err := m.kernel.After(airtime, tx.finishFn); err != nil {
		m.putTx(tx)
		return err
	}

	// Mutual collision marking against all overlapping transmissions.
	for _, other := range m.active {
		// other collides if tx is audible at other's receiver.
		if m.audibleFast(frame.From, other.frame.To) {
			other.hit = true
		}
		// tx collides if other is audible at tx's receiver.
		if m.audibleFast(other.frame.From, frame.To) {
			tx.hit = true
		}
	}
	tx.idx = len(m.active)
	m.active = append(m.active, tx)
	m.obsSent.Inc()
	if m.trace != nil {
		m.trace.Emit(obs.Event{T: now, Kind: obs.KindTX,
			Node: int32(frame.From), Link: int32(frame.To), Slot: -1, Frame: -1,
			A: int64(frame.Bytes), B: int64(airtime)})
	}

	// Raise busy at every node that hears the transmitter (and, for a
	// protected exchange, the receiver).
	for _, n := range tx.heard {
		if m.busyCount[n] == 0 {
			m.busyEpoch[n]++
		}
		m.busyCount[n]++
	}
	return nil
}

// getTx pops a pooled transmission (or builds one, wiring its reusable
// finish closure).
func (m *Medium) getTx() *transmission {
	if n := len(m.pool); n > 0 {
		tx := m.pool[n-1]
		m.pool = m.pool[:n-1]
		return tx
	}
	tx := &transmission{}
	tx.finishFn = func() { m.finish(tx) }
	return tx
}

// putTx returns a transmission to the pool, dropping caller references.
func (m *Medium) putTx(tx *transmission) {
	tx.frame = Frame{}
	tx.heard = nil
	m.pool = append(m.pool, tx)
}

// unionAudience fills tx.scratch with the deduplicated union of the two
// nodes' audiences, using the epoch-marked scratch array instead of a map.
func (m *Medium) unionAudience(tx *transmission, from, to topology.NodeID) []topology.NodeID {
	m.markEpoch++
	out := tx.scratch[:0]
	for _, n := range m.audience[from] {
		m.mark[n] = m.markEpoch
		out = append(out, n)
	}
	for _, n := range m.audience[to] {
		if m.mark[n] != m.markEpoch {
			out = append(out, n)
		}
	}
	tx.scratch = out
	return out
}

func (m *Medium) finish(tx *transmission) {
	// Remove from active: swap with the last entry.
	last := len(m.active) - 1
	m.active[tx.idx] = m.active[last]
	m.active[tx.idx].idx = tx.idx
	m.active[last] = nil
	m.active = m.active[:last]

	now := m.kernel.Now()
	for _, n := range tx.heard {
		m.busyCount[n]--
		if m.busyCount[n] == 0 {
			if waiters := m.idleWaiters[n]; len(waiters) > 0 {
				// Detach before invoking so callbacks can re-arm WhenIdle;
				// recycle the drained array if nobody re-armed meanwhile.
				m.idleWaiters[n] = nil
				for _, fn := range waiters {
					fn()
				}
				if m.idleWaiters[n] == nil {
					m.idleWaiters[n] = waiters[:0]
				}
			}
		}
	}
	lost := false
	if !tx.hit && m.lossModel != nil {
		per := m.lossModel(tx.frame.From, tx.frame.To)
		if per > 0 && m.lossRNG.Float64() < per {
			lost = true
		}
	}
	switch {
	case tx.hit:
		m.obsCollided.Inc()
		if m.trace != nil {
			m.trace.Emit(obs.Event{T: now, Kind: obs.KindCollision,
				Node: int32(tx.frame.From), Link: int32(tx.frame.To), Slot: -1, Frame: -1,
				A: int64(tx.frame.Bytes)})
		}
	case lost:
		m.obsLost.Inc()
	default:
		m.obsDelivered.Inc()
	}
	if fn := m.deliver[tx.frame.To]; fn != nil {
		fn(Delivery{Frame: tx.frame, At: now, Collided: tx.hit, Lost: lost})
	}
	m.putTx(tx)
}
