// Package dcf simulates the IEEE 802.11 Distributed Coordination Function
// (CSMA/CA) over the shared medium model: DIFS sensing, binary exponential
// backoff with slot-by-slot countdown and freezing, acknowledged exchanges,
// retry limits, and FIFO interface queues.
//
// DCF is the baseline the TDMA emulation is compared against: it offers no
// delay guarantees, collapses under hidden terminals and saturation, and its
// per-packet delay spreads with contention (experiments R3, R4, R8).
package dcf

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"wimesh/internal/mac"
	"wimesh/internal/obs"
	"wimesh/internal/phy"
	"wimesh/internal/sim"
	"wimesh/internal/topology"
)

// Packet is a network-layer packet routed hop by hop over the mesh.
type Packet struct {
	// FlowID tags the packet's flow for accounting.
	FlowID int
	// Seq is the flow-local sequence number.
	Seq int
	// Route is the node sequence from source to destination.
	Route []topology.NodeID
	// Hop indexes the current transmitter in Route.
	Hop int
	// Bytes is the IP packet size.
	Bytes int
	// Created is the time the packet entered the source queue.
	Created time.Duration
}

// Dst returns the final destination.
func (p *Packet) Dst() topology.NodeID { return p.Route[len(p.Route)-1] }

// Config parameterizes the DCF network.
type Config struct {
	// PHY supplies MAC/PHY timing (default IEEE80211b).
	PHY phy.WiFiPHY
	// DataRateBps is the data frame rate (default 11 Mb/s).
	DataRateBps float64
	// RetryLimit is the maximum retransmissions before a drop (default 7).
	RetryLimit int
	// QueueCap bounds each node's interface queue (default 64).
	QueueCap int
	// Seed drives the backoff randomness.
	Seed int64
	// RTSCTS protects data exchanges with an RTS/CTS handshake: virtual
	// carrier sense reserves the medium around the receiver, mitigating
	// hidden terminals at the cost of the handshake overhead.
	RTSCTS bool
}

func (c *Config) applyDefaults() {
	if c.PHY.Name == "" {
		c.PHY = phy.IEEE80211b()
	}
	if c.DataRateBps == 0 {
		c.DataRateBps = 11e6
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 7
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
}

// DeliveredFunc receives packets that reach their final destination. The MAC
// never touches a packet again after the callback returns, so the callback
// owns it and may recycle it into a pool.
type DeliveredFunc func(p *Packet, at time.Duration)

// Stats aggregates network-wide counters.
type Stats struct {
	Injected       uint64
	Delivered      uint64
	DroppedQueue   uint64
	DroppedRetries uint64
	Transmissions  uint64
	Collisions     uint64
	// ChannelLosses counts exchanges destroyed by the medium's loss model
	// (retransmitted like collisions).
	ChannelLosses uint64
}

// Network is a mesh running DCF on every node.
type Network struct {
	cfg    Config
	topo   *topology.Network
	kernel *sim.Kernel
	medium *mac.Medium
	// nodes is indexed by NodeID (dense, see topology.NodeID).
	nodes []*node
	// rates is the row-major precomputed per-hop PHY rate matrix (the
	// topology is static, so linkRate never needs a link lookup).
	rates []float64

	onDelivered DeliveredFunc
	stats       Stats

	// Observability handles; nil (no-op) unless a sink is configured.
	trace        *obs.Trace
	obsAttempts  *obs.Counter
	obsDefers    *obs.Counter
	obsCollided  *obs.Counter
	obsRetryDrop *obs.Counter
}

type node struct {
	nw  *Network
	id  topology.NodeID
	rng *rand.Rand

	queue []*Packet
	// qhead indexes the head of line within queue: pops advance the head
	// and the dead prefix is compacted away amortized-O(1), so huge
	// saturated queues never pay per-pop copies or lose their capacity.
	qhead int
	cw    int
	// retries counts transmissions of the head-of-line packet.
	retries int
	// backoff is the remaining backoff slots; -1 means "draw a new value".
	backoff int
	// accessing marks an in-flight channel-access procedure, transmitting
	// an in-flight exchange.
	accessing    bool
	transmitting bool
	// ctx is the node's reusable transmission context: a node has at most
	// one exchange in flight, so the frame payload never allocates.
	ctx txContext

	// Prebound continuations for the channel-access hot path. A node has at
	// most one pending access step (kick guards on accessing), so the epoch
	// a step must revalidate can live on the node and the closures can be
	// allocated once here instead of once per DIFS wait and backoff slot —
	// the slot countdown is the busiest event source in saturated runs.
	accessFn   func()
	difsFn     func()
	slotFn     func()
	transmitFn func()
	// stepEpoch is the medium busy-epoch captured when the pending DIFS or
	// slot timer was scheduled.
	stepEpoch uint64
}

// txContext links a transmission outcome back to the sender.
type txContext struct {
	pkt    *Packet
	sender *node
}

// New creates a DCF network over the topology. interferenceRange sets the
// carrier-sense/interference radius of the medium. The delivered callback
// may be nil.
func New(cfg Config, topo *topology.Network, kernel *sim.Kernel, interferenceRange float64, delivered DeliveredFunc) (*Network, error) {
	if topo == nil || kernel == nil {
		return nil, errors.New("dcf: nil topology or kernel")
	}
	cfg.applyDefaults()
	if !cfg.PHY.SupportsRate(cfg.DataRateBps) {
		return nil, fmt.Errorf("dcf: %s does not support %g b/s", cfg.PHY.Name, cfg.DataRateBps)
	}
	medium, err := mac.NewMedium(topo, kernel, interferenceRange)
	if err != nil {
		return nil, err
	}
	numNodes := topo.NumNodes()
	nw := &Network{
		cfg:         cfg,
		topo:        topo,
		kernel:      kernel,
		medium:      medium,
		nodes:       make([]*node, numNodes),
		rates:       make([]float64, numNodes*numNodes),
		onDelivered: delivered,
	}
	for _, nd := range topo.Nodes() {
		n := &node{
			nw:      nw,
			id:      nd.ID,
			rng:     sim.NewRNG(cfg.Seed, int64(nd.ID)+1000),
			queue:   make([]*Packet, 0, queuePrealloc(cfg.QueueCap)),
			cw:      cfg.PHY.CWMin,
			backoff: -1,
		}
		n.ctx.sender = n
		n.accessFn = n.access
		n.difsFn = n.difsEnd
		n.slotFn = n.slotEnd
		n.transmitFn = n.transmit
		nw.nodes[nd.ID] = n
		if err := medium.SetReceiver(nd.ID, nw.onDelivery); err != nil {
			return nil, err
		}
	}
	reg := obs.Default()
	nw.trace = obs.DefaultTrace()
	nw.obsAttempts = reg.Counter("dcf.tx_attempts")
	nw.obsDefers = reg.Counter("dcf.defers")
	nw.obsCollided = reg.Counter("dcf.collisions")
	nw.obsRetryDrop = reg.Counter("dcf.retry_drops")
	for i := range nw.rates {
		nw.rates[i] = cfg.DataRateBps
	}
	// The topology's per-link rates (adaptive modulation) override the MAC
	// default where the PHY supports them; routes over non-links keep the
	// default and still transmit and collide realistically.
	for _, lk := range topo.Links() {
		if lk.RateBps > 0 && cfg.PHY.SupportsRate(lk.RateBps) {
			nw.rates[int(lk.From)*numNodes+int(lk.To)] = lk.RateBps
		}
	}
	return nw, nil
}

// Stats returns a copy of the counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Inject enqueues a packet at the first node of its route. The route must
// have at least two nodes and exist in the topology.
func (nw *Network) Inject(p *Packet) error {
	if p == nil || len(p.Route) < 2 {
		return errors.New("dcf: packet needs a route of >= 2 nodes")
	}
	if p.Hop != 0 {
		return fmt.Errorf("dcf: inject with hop %d", p.Hop)
	}
	if p.Route[0] < 0 || int(p.Route[0]) >= len(nw.nodes) {
		return fmt.Errorf("dcf: unknown source %d", p.Route[0])
	}
	src := nw.nodes[p.Route[0]]
	p.Created = nw.kernel.Now()
	nw.stats.Injected++
	nw.enqueue(src, p)
	return nil
}

func (nw *Network) enqueue(n *node, p *Packet) {
	if n.qlen() >= nw.cfg.QueueCap {
		nw.stats.DroppedQueue++
		return
	}
	n.queue = append(n.queue, p)
	n.kick()
}

// kick starts the channel-access procedure if the node has work and is not
// already contending or transmitting.
func (n *node) kick() {
	if n.accessing || n.transmitting || n.qlen() == 0 {
		return
	}
	n.accessing = true
	n.access()
}

// access waits for an idle channel, then a full DIFS, then runs backoff.
func (n *node) access() {
	m := n.nw.medium
	if m.Busy(n.id) {
		n.nw.obsDefers.Inc()
		if n.nw.trace != nil {
			n.nw.trace.Emit(obs.Event{T: n.nw.kernel.Now(), Kind: obs.KindDefer,
				Node: int32(n.id), Link: -1, Slot: -1, Frame: -1, A: 0})
		}
		if err := m.WhenIdle(n.id, n.accessFn); err != nil {
			n.accessing = false
		}
		return
	}
	n.stepEpoch = m.BusyEpoch(n.id)
	if _, err := n.nw.kernel.After(n.nw.cfg.PHY.DIFS(), n.difsFn); err != nil {
		n.accessing = false
	}
}

func (n *node) difsEnd() {
	m := n.nw.medium
	// The epoch was captured while idle and increments on every idle->busy
	// transition, so a changed epoch is exactly "busy now or busy since".
	if m.BusyEpoch(n.id) != n.stepEpoch {
		n.nw.obsDefers.Inc()
		if n.nw.trace != nil {
			n.nw.trace.Emit(obs.Event{T: n.nw.kernel.Now(), Kind: obs.KindDefer,
				Node: int32(n.id), Link: -1, Slot: -1, Frame: -1, A: 1})
		}
		n.access() // interrupted: wait for idle again
		return
	}
	if n.backoff < 0 {
		n.backoff = n.rng.Intn(n.cw + 1)
	}
	n.slot()
}

// slot counts one backoff slot down per idle slot; interruptions restart the
// DIFS wait with the remaining count frozen.
func (n *node) slot() {
	if n.backoff == 0 {
		// Action phase: transmit after all same-instant decisions settle.
		if _, err := n.nw.kernel.After(0, n.transmitFn); err != nil {
			n.accessing = false
		}
		return
	}
	m := n.nw.medium
	n.stepEpoch = m.BusyEpoch(n.id)
	if _, err := n.nw.kernel.After(n.nw.cfg.PHY.SlotTime, n.slotFn); err != nil {
		n.accessing = false
	}
}

// slotEnd finishes one idle backoff slot. As in difsEnd, the epoch check
// alone covers both "busy now" and "was busy meanwhile".
func (n *node) slotEnd() {
	if n.nw.medium.BusyEpoch(n.id) != n.stepEpoch {
		n.nw.obsDefers.Inc()
		if n.nw.trace != nil {
			n.nw.trace.Emit(obs.Event{T: n.nw.kernel.Now(), Kind: obs.KindDefer,
				Node: int32(n.id), Link: -1, Slot: -1, Frame: -1, A: 1})
		}
		n.access()
		return
	}
	n.backoff--
	n.slot()
}

// transmit sends the head-of-line packet as an acknowledged exchange.
func (n *node) transmit() {
	if n.qlen() == 0 {
		n.accessing = false
		return
	}
	p := n.queue[n.qhead]
	rate := n.nw.linkRate(n.id, p.Route[p.Hop+1])
	var (
		airtime time.Duration
		err     error
	)
	if n.nw.cfg.RTSCTS {
		airtime, err = n.nw.cfg.PHY.ProtectedExchangeTime(p.Bytes, rate)
	} else {
		airtime, err = n.nw.cfg.PHY.DataExchangeTime(p.Bytes, rate)
	}
	if err != nil {
		// Unreachable with a validated config; drop the packet defensively.
		n.popHead()
		n.accessing = false
		n.kick()
		return
	}
	n.accessing = false
	n.transmitting = true
	n.retries++
	n.nw.stats.Transmissions++
	n.nw.obsAttempts.Inc()
	if n.nw.trace != nil {
		n.nw.trace.Emit(obs.Event{T: n.nw.kernel.Now(), Kind: obs.KindTXAttempt,
			Node: int32(n.id), Link: -1, Slot: -1, Frame: -1, A: int64(n.retries - 1)})
	}
	n.ctx.pkt = p
	frame := mac.Frame{
		From:    n.id,
		To:      p.Route[p.Hop+1],
		Bytes:   p.Bytes,
		Payload: &n.ctx,
	}
	if n.nw.cfg.RTSCTS {
		err = n.nw.medium.TransmitProtected(frame, airtime)
	} else {
		err = n.nw.medium.Transmit(frame, airtime)
	}
	if err != nil {
		n.transmitting = false
		n.kick()
	}
}

// onDelivery handles the end of every exchange: outcome for the sender,
// forwarding or final delivery for the receiver.
func (nw *Network) onDelivery(d mac.Delivery) {
	ctx, ok := d.Frame.Payload.(*txContext)
	if !ok {
		return
	}
	sender := ctx.sender
	sender.transmitting = false
	if d.Collided || d.Lost {
		if d.Collided {
			nw.stats.Collisions++
			nw.obsCollided.Inc()
		} else {
			nw.stats.ChannelLosses++
		}
		sender.onFail()
		return
	}
	sender.onSuccess()
	nw.receive(d.Frame.To, ctx.pkt)
}

func (n *node) onSuccess() {
	n.popHead()
	n.retries = 0
	n.cw = n.nw.cfg.PHY.CWMin
	n.backoff = -1
	n.kick()
}

func (n *node) onFail() {
	if n.retries > n.nw.cfg.RetryLimit {
		n.popHead()
		n.nw.stats.DroppedRetries++
		n.nw.obsRetryDrop.Inc()
		n.retries = 0
		n.cw = n.nw.cfg.PHY.CWMin
	} else if n.cw*2+1 <= n.nw.cfg.PHY.CWMax {
		n.cw = n.cw*2 + 1
	} else {
		n.cw = n.nw.cfg.PHY.CWMax
	}
	n.backoff = -1
	n.kick()
}

// popHead removes the head-of-line packet by advancing the head index. The
// dead prefix is reclaimed when the queue drains, or slid away once it
// reaches half the backing array — amortized O(1) per pop, and the array
// keeps its capacity for future enqueues.
func (n *node) popHead() {
	q := n.queue
	q[n.qhead] = nil
	n.qhead++
	switch h := n.qhead; {
	case h == len(q):
		n.queue = q[:0]
		n.qhead = 0
	case h*2 >= len(q):
		rest := copy(q, q[h:])
		clearTail(q, rest)
		n.queue = q[:rest]
		n.qhead = 0
	}
}

// qlen is the live queue length (head index excluded).
func (n *node) qlen() int { return len(n.queue) - n.qhead }

// clearTail nils queue slots beyond the live region so popped packets do not
// linger for the garbage collector.
func clearTail(q []*Packet, from int) {
	for i := from; i < len(q); i++ {
		q[i] = nil
	}
}

// queuePrealloc bounds the up-front queue capacity: typical voice runs use
// small caps that are worth preallocating; saturation experiments pass huge
// caps that must grow on demand instead.
func queuePrealloc(queueCap int) int {
	if queueCap > 64 {
		return 64
	}
	return queueCap
}

func (nw *Network) receive(at topology.NodeID, p *Packet) {
	if at == p.Dst() {
		nw.stats.Delivered++
		if nw.onDelivered != nil {
			nw.onDelivered(p, nw.kernel.Now())
		}
		return
	}
	p.Hop++
	if at >= 0 && int(at) < len(nw.nodes) {
		nw.enqueue(nw.nodes[at], p)
	}
}

// linkRate returns the precomputed PHY rate for the hop from -> to (see the
// rate matrix built in New).
func (nw *Network) linkRate(from, to topology.NodeID) float64 {
	return nw.rates[int(from)*len(nw.nodes)+int(to)]
}
