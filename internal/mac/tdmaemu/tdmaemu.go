// Package tdmaemu implements the system of the reproduced paper: a software
// TDMA MAC that emulates the IEEE 802.16 mesh frame structure over
// commodity 802.11 (WiFi) hardware.
//
// Every node holds the network-wide conflict-free schedule
// (internal/schedule) and transmits on each of its outgoing links only
// inside that link's data-slot windows. Because WiFi hardware has no PHY
// slot timing, windows are located with the node's local clock
// (internal/timesync); a guard interval at the start of each window absorbs
// clock error. When the error exceeds the guard, transmissions leak into
// neighbouring slots and collide at receivers — the schedule-violation
// metric of experiment R6. Within a window, packets are sent back to back as
// ordinary 802.11 frames, paying preamble + PLCP per packet (the emulation
// overhead of experiment R5); there is no contention, so a correct schedule
// gives collision-free, bounded-delay service (experiments R3, R4).
package tdmaemu

import (
	"errors"
	"fmt"
	"time"

	"wimesh/internal/mac"
	"wimesh/internal/obs"
	"wimesh/internal/phy"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/timesync"
	"wimesh/internal/topology"
)

// Packet is a network-layer packet routed over a fixed link path.
type Packet struct {
	FlowID int
	Seq    int
	// Path is the link sequence from source to destination.
	Path topology.Path
	// Hop indexes the current link in Path.
	Hop int
	// Bytes is the IP packet size.
	Bytes int
	// BestEffort marks background traffic: within each link queue,
	// guaranteed (voice) packets are served strictly first, and when a full
	// queue receives a guaranteed packet a best-effort packet is evicted to
	// make room.
	BestEffort bool
	// Created is the time the packet entered the source queue.
	Created time.Duration

	// arq counts link-layer retransmissions consumed.
	arq int
}

// AggregateSubheaderBytes is the per-subframe overhead of packet
// aggregation (A-MSDU-style subframe header plus padding).
const AggregateSubheaderBytes = 14

// Config parameterizes the emulation MAC.
type Config struct {
	// PHY supplies 802.11 timing (default IEEE80211b).
	PHY phy.WiFiPHY
	// DataRateBps is the data frame rate (default 11 Mb/s).
	DataRateBps float64
	// Guard is the guard interval at the start of each slot window
	// (default 100 us). An explicit zero guard (no margin for clock error —
	// the slot-leakage experiments) must be requested by also setting
	// GuardSet, because zero is the "use the default" sentinel otherwise.
	Guard time.Duration
	// GuardSet marks Guard as explicitly configured, so Guard == 0 means a
	// true zero-guard MAC instead of the 100 us default.
	GuardSet bool
	// QueueCap bounds each link queue (default 64).
	QueueCap int
	// AggregateLimit packs up to this many queued packets into one 802.11
	// frame (A-MSDU style), amortizing the preamble over small voice
	// packets. 0 or 1 disables aggregation.
	AggregateLimit int
	// ARQRetries enables link-layer ARQ against channel losses: a lost
	// frame's packets are requeued at the head of their link queue up to
	// this many times each (0 disables ARQ). Feedback is modeled as
	// immediate (the 802.16 ARQ feedback IE arrives well before the next
	// frame's window).
	ARQRetries int
}

// Defaulted returns the configuration with all defaults filled in, so
// callers can inspect the effective PHY and rate.
func (c Config) Defaulted() Config {
	c.applyDefaults()
	return c
}

func (c *Config) applyDefaults() {
	if c.PHY.Name == "" {
		c.PHY = phy.IEEE80211b()
	}
	if c.DataRateBps == 0 {
		c.DataRateBps = 11e6
	}
	if c.Guard == 0 && !c.GuardSet {
		c.Guard = 100 * time.Microsecond
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
}

// Validate checks the configuration against the frame layout: a slot must
// fit at least one maximum-size voice frame after the guard.
func (c Config) validate(frame tdma.FrameConfig) error {
	if !c.PHY.SupportsRate(c.DataRateBps) {
		return fmt.Errorf("tdmaemu: %s does not support %g b/s", c.PHY.Name, c.DataRateBps)
	}
	if c.Guard < 0 {
		return errors.New("tdmaemu: negative guard")
	}
	if c.Guard >= frame.SlotDuration() {
		return fmt.Errorf("tdmaemu: guard %v swallows the %v slot", c.Guard, frame.SlotDuration())
	}
	return nil
}

// DeliveredFunc receives packets that complete their path. The MAC never
// touches a packet again after the callback returns, so the callback owns it
// and may recycle it into a pool.
type DeliveredFunc func(p *Packet, at time.Duration)

// txBatch is a pooled transmission payload: the packets of one (possibly
// aggregated) 802.11 frame, copied out of the link queue so the queue array
// can be compacted and reused while the frame is in flight.
type txBatch struct {
	pkts []*Packet
}

// winServe is the pooled state of one slot window's service chain: the
// back-to-back transmissions within a single window share one record and one
// kernel closure, released when the chain ends.
type winServe struct {
	a              tdma.Assignment
	lk             topology.Link
	windowEndLocal time.Duration
	run            func()
}

// armChain re-arms one assignment's window frame after frame. A chain is
// allocated per assignment per schedule generation (Start/SetSchedule), so
// the per-frame arming path allocates nothing.
type armChain struct {
	a      tdma.Assignment
	lk     topology.Link
	offset time.Duration // SlotStart(a.Start), fixed per assignment
	frame  int64
	gen    uint64
	fire   func()
}

// Stats aggregates counters.
type Stats struct {
	Injected      uint64
	Delivered     uint64
	DroppedQueue  uint64
	Transmissions uint64
	// Violations counts receptions destroyed by overlapping transmissions
	// (sync error exceeding the guard, or an invalid schedule).
	Violations uint64
	// FailureDrops counts frames lost on failed links.
	FailureDrops uint64
	// ChannelLosses counts frames destroyed by the medium's loss model.
	ChannelLosses uint64
	// ARQRetransmissions counts packets requeued by link-layer ARQ.
	ARQRetransmissions uint64
}

// Network runs the TDMA emulation over a mesh.
type Network struct {
	cfg      Config
	topo     *topology.Network
	kernel   *sim.Kernel
	medium   *mac.Medium
	schedule *tdma.Schedule
	// sync supplies per-node clock errors; nil means perfect clocks.
	sync *timesync.Sync

	// queues is indexed by LinkID (dense, see topology.LinkID); qhead[l]
	// indexes the head of line within queues[l]: serving advances the head
	// and the dead prefix is compacted away amortized-O(1), so saturated
	// queues never pay per-serve copies or lose their capacity.
	queues      [][]*Packet
	qhead       []int
	onDelivered DeliveredFunc
	stats       Stats
	started     bool
	// gen invalidates armed window events when the schedule is swapped.
	gen uint64
	// failed[l] marks links that lose every frame transmitted over them.
	failed []bool

	// batchPool and servePool recycle transmission payloads and window
	// service records, so steady-state slot service allocates nothing.
	batchPool []*txBatch
	servePool []*winServe
	// One-entry airtime cache for (bytes, rate): voice traffic is uniform,
	// so repeated DataFrameTime lookups collapse into a compare.
	airBytes int
	airRate  float64
	airTime  time.Duration
	airOK    bool

	// Observability. obsOn gates the per-window observation block (it reads
	// the clock-error model a second time, which is pure but not free);
	// handle updates themselves are nil-safe. Per-node slices are only
	// allocated when obsOn.
	obsOn         bool
	trace         *obs.Trace
	guardOverrun  []*obs.Counter // per node: tdmaemu.guard_overrun.node<N>
	syncErrGauge  []*obs.Gauge   // per node: tdmaemu.sync_error_ns.node<N>
	syncErrHist   *obs.Histogram
	obsSlots      *obs.Counter
	obsOverruns   *obs.Counter
	obsTx         *obs.Counter
	obsViolations *obs.Counter
}

// New creates the emulation network. sync may be nil for ideal clocks;
// delivered may be nil.
func New(cfg Config, topo *topology.Network, kernel *sim.Kernel, sched *tdma.Schedule,
	sync *timesync.Sync, interferenceRange float64, delivered DeliveredFunc) (*Network, error) {
	if topo == nil || kernel == nil || sched == nil {
		return nil, errors.New("tdmaemu: nil topology, kernel or schedule")
	}
	cfg.applyDefaults()
	if err := cfg.validate(sched.Config); err != nil {
		return nil, err
	}
	medium, err := mac.NewMedium(topo, kernel, interferenceRange)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:         cfg,
		topo:        topo,
		kernel:      kernel,
		medium:      medium,
		schedule:    sched,
		sync:        sync,
		queues:      make([][]*Packet, topo.NumLinks()),
		onDelivered: delivered,
		failed:      make([]bool, topo.NumLinks()),
		qhead:       make([]int, topo.NumLinks()),
	}
	// Preallocate the typical voice-run queue capacity; saturation
	// experiments pass huge caps that grow on demand instead.
	prealloc := cfg.QueueCap
	if prealloc > 64 {
		prealloc = 64
	}
	for i := range nw.queues {
		nw.queues[i] = make([]*Packet, 0, prealloc)
	}
	for _, nd := range topo.Nodes() {
		if err := medium.SetReceiver(nd.ID, nw.onDelivery); err != nil {
			return nil, err
		}
	}
	reg := obs.Default()
	tr := obs.DefaultTrace()
	if reg != nil || tr != nil {
		nw.obsOn = true
		nw.trace = tr
		n := topo.NumNodes()
		nw.guardOverrun = make([]*obs.Counter, n)
		nw.syncErrGauge = make([]*obs.Gauge, n)
		for i := 0; i < n; i++ {
			nw.guardOverrun[i] = reg.Counter(fmt.Sprintf("tdmaemu.guard_overrun.node%d", i))
			nw.syncErrGauge[i] = reg.Gauge(fmt.Sprintf("tdmaemu.sync_error_ns.node%d", i))
		}
		// +-1 ms covers the sync errors of every R6-style scenario; wider
		// excursions clamp into the edge bins.
		nw.syncErrHist = reg.Histogram("tdmaemu.sync_error_ns", -1e6, 1e6, 64)
		nw.obsSlots = reg.Counter("tdmaemu.slots_served")
		nw.obsOverruns = reg.Counter("tdmaemu.guard_overruns")
		nw.obsTx = reg.Counter("tdmaemu.transmissions")
		nw.obsViolations = reg.Counter("tdmaemu.violations")
	}
	return nw, nil
}

// Medium exposes the underlying medium (tests, stats).
func (nw *Network) Medium() *mac.Medium { return nw.medium }

// Stats returns a copy of the counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Start schedules the per-frame slot service for every assignment,
// beginning with frame 0 at virtual time 0.
func (nw *Network) Start() error {
	if nw.started {
		return errors.New("tdmaemu: already started")
	}
	nw.started = true
	nw.gen++
	return nw.armAll(0)
}

// SetSchedule hot-swaps the schedule: armed windows of the old schedule are
// invalidated (they check the generation when firing) and the new
// schedule's windows take over from the next frame boundary. The new
// schedule must use the same frame layout.
func (nw *Network) SetSchedule(sched *tdma.Schedule) error {
	if sched == nil {
		return errors.New("tdmaemu: nil schedule")
	}
	if sched.Config != nw.schedule.Config {
		return errors.New("tdmaemu: schedule swap must keep the frame layout")
	}
	nw.schedule = sched
	nw.gen++
	if !nw.started {
		return nil
	}
	nextFrame, _ := nw.schedule.Config.FrameOfTime(nw.kernel.Now())
	return nw.armAll(nextFrame + 1)
}

func (nw *Network) armAll(frame int64) error {
	for _, a := range nw.schedule.Assignments {
		lk, err := nw.topo.Link(a.Link)
		if err != nil {
			return fmt.Errorf("tdmaemu: schedule references %w", err)
		}
		offset, err := nw.schedule.Config.SlotStart(a.Start)
		if err != nil {
			return err
		}
		c := &armChain{a: a, lk: lk, offset: offset, frame: frame, gen: nw.gen}
		c.fire = func() { nw.fireWindow(c) }
		if err := nw.armWindow(c); err != nil {
			return err
		}
	}
	return nil
}

// FailLink marks a link as failed: frames transmitted over it still burn
// airtime but never arrive. Returns an error for unknown links.
func (nw *Network) FailLink(l topology.LinkID) error {
	if _, err := nw.topo.Link(l); err != nil {
		return fmt.Errorf("tdmaemu: %w", err)
	}
	nw.failed[l] = true
	return nil
}

func (nw *Network) hasLink(l topology.LinkID) bool {
	return l >= 0 && int(l) < len(nw.queues)
}

// armWindow arms the service event of the chain's current frame, skipping
// frames whose window the clock error moved into the past (startup
// transient).
func (nw *Network) armWindow(c *armChain) error {
	for {
		frameStart := time.Duration(c.frame) * nw.schedule.Config.FrameDuration
		localTarget := frameStart + c.offset + nw.cfg.Guard
		trueAt := nw.localToTrue(c.lk.From, localTarget)
		if trueAt < nw.kernel.Now() {
			c.frame++
			continue
		}
		_, err := nw.kernel.At(trueAt, c.fire)
		return err
	}
}

// fireWindow opens one window: observe, serve the queue, and re-arm the
// chain for the next frame while the generation matches.
func (nw *Network) fireWindow(c *armChain) {
	if nw.gen != c.gen {
		return // schedule swapped: this window chain is dead
	}
	frameStart := time.Duration(c.frame) * nw.schedule.Config.FrameDuration
	if nw.obsOn {
		nw.observeWindow(c.a, c.lk, c.frame, frameStart+c.offset+nw.cfg.Guard)
	}
	st := nw.getServe()
	st.a = c.a
	st.lk = c.lk
	st.windowEndLocal = frameStart + c.offset + time.Duration(c.a.Length)*nw.schedule.Config.SlotDuration()
	nw.serveWindow(st)
	c.frame++
	if err := nw.armWindow(c); err != nil {
		// Kernel time only moves forward; scheduling the next frame
		// cannot fail except at shutdown. Stop servicing this link.
		nw.started = false
	}
}

// observeWindow records the slot-open observables: the transmitter's clock
// error (re-read from the sync model, which is pure arithmetic — observation
// never perturbs simulation state), the queue depth, and whether the error
// exceeded the guard (the R6 guard-overrun criterion). Only called when
// obsOn.
func (nw *Network) observeWindow(a tdma.Assignment, lk topology.Link, frame int64, localTarget time.Duration) {
	var errAt time.Duration
	if nw.sync != nil {
		if e, err := nw.sync.ErrorAt(lk.From, localTarget); err == nil {
			errAt = e
		}
	}
	nw.syncErrGauge[lk.From].Set(errAt.Nanoseconds())
	nw.syncErrHist.Observe(float64(errAt.Nanoseconds()))
	nw.obsSlots.Inc()
	if nw.trace != nil {
		nw.trace.Emit(obs.Event{T: nw.kernel.Now(), Kind: obs.KindSlotStart,
			Node: int32(lk.From), Link: int32(a.Link), Slot: int32(a.Start), Frame: frame,
			A: errAt.Nanoseconds(), B: int64(len(nw.queues[a.Link]) - nw.qhead[a.Link])})
	}
	mag := errAt
	if mag < 0 {
		mag = -mag
	}
	if mag > nw.cfg.Guard {
		nw.guardOverrun[lk.From].Inc()
		nw.obsOverruns.Inc()
		nw.trace.Emit(obs.Event{T: nw.kernel.Now(), Kind: obs.KindGuardOverrun,
			Node: int32(lk.From), Link: int32(a.Link), Slot: int32(a.Start), Frame: frame,
			A: errAt.Nanoseconds(), B: int64(nw.cfg.Guard)})
	}
}

// localToTrue converts a node-local clock reading into true time using the
// current clock error (first-order inversion).
func (nw *Network) localToTrue(n topology.NodeID, local time.Duration) time.Duration {
	if nw.sync == nil {
		return local
	}
	errAt, err := nw.sync.ErrorAt(n, local)
	if err != nil {
		return local
	}
	return local - errAt
}

// serveWindow transmits queued packets of the assignment's link back to back
// until the window (in the transmitter's local clock) cannot fit another
// frame. With aggregation enabled, several queued packets share one 802.11
// frame. Every terminating path releases the pooled service state; a
// continuing transmission hands it to the chained kernel event instead.
func (nw *Network) serveWindow(st *winServe) {
	live := nw.queues[st.a.Link][nw.qhead[st.a.Link]:]
	if len(live) == 0 {
		nw.putServe(st)
		return
	}
	nowLocal := nw.trueToLocal(st.lk.From, nw.kernel.Now())
	budget := st.windowEndLocal - nowLocal
	n, frameBytes, airtime := nw.batchSize(live, budget, nw.rateFor(st.lk))
	if n == 0 {
		nw.putServe(st)
		return
	}
	b := nw.getBatch()
	b.pkts = append(b.pkts[:0], live[:n]...)
	nw.popFront(st.a.Link, n)
	nw.stats.Transmissions++
	nw.obsTx.Inc()
	frame := mac.Frame{From: st.lk.From, To: st.lk.To, Bytes: frameBytes, Payload: b}
	if err := nw.medium.Transmit(frame, airtime); err != nil {
		nw.putBatch(b)
		nw.putServe(st)
		return
	}
	// Next frame after this one plus SIFS spacing.
	if _, err := nw.kernel.After(airtime+nw.cfg.PHY.SIFS, st.run); err != nil {
		nw.putServe(st)
		return
	}
}

// popFront removes the first n live packets of a link queue by advancing the
// head index. The dead prefix is reclaimed when the queue drains, or slid
// away once it reaches half the backing array — amortized O(1) per packet,
// and the array keeps its capacity for future enqueues (the served batch
// holds its own copies).
func (nw *Network) popFront(l topology.LinkID, n int) {
	q := nw.queues[l]
	h := nw.qhead[l]
	for i := h; i < h+n; i++ {
		q[i] = nil
	}
	h += n
	switch {
	case h == len(q):
		nw.queues[l] = q[:0]
		nw.qhead[l] = 0
	case h*2 >= len(q):
		rest := copy(q, q[h:])
		for i := rest; i < len(q); i++ {
			q[i] = nil
		}
		nw.queues[l] = q[:rest]
		nw.qhead[l] = 0
	default:
		nw.qhead[l] = h
	}
}

// getServe pops a pooled window service record (or builds one, wiring its
// reusable kernel closure).
func (nw *Network) getServe() *winServe {
	if n := len(nw.servePool); n > 0 {
		st := nw.servePool[n-1]
		nw.servePool = nw.servePool[:n-1]
		return st
	}
	st := &winServe{}
	st.run = func() { nw.serveWindow(st) }
	return st
}

func (nw *Network) putServe(st *winServe) {
	nw.servePool = append(nw.servePool, st)
}

// getBatch pops a pooled transmission payload.
func (nw *Network) getBatch() *txBatch {
	if n := len(nw.batchPool); n > 0 {
		b := nw.batchPool[n-1]
		nw.batchPool = nw.batchPool[:n-1]
		return b
	}
	return &txBatch{}
}

// putBatch returns a payload to the pool, dropping its packet references.
func (nw *Network) putBatch(b *txBatch) {
	for i := range b.pkts {
		b.pkts[i] = nil
	}
	b.pkts = b.pkts[:0]
	nw.batchPool = append(nw.batchPool, b)
}

// rateFor returns the PHY rate used on a link: the link's own rate when the
// configured PHY supports it (adaptive modulation), the MAC default
// otherwise.
func (nw *Network) rateFor(lk topology.Link) float64 {
	if lk.RateBps > 0 && nw.cfg.PHY.SupportsRate(lk.RateBps) {
		return lk.RateBps
	}
	return nw.cfg.DataRateBps
}

// batchSize selects how many head-of-line packets (up to the aggregation
// limit) fit one frame in the remaining local window budget at the given
// rate, returning the count, the MAC payload size and the airtime. A zero
// count means even one packet does not fit.
func (nw *Network) batchSize(q []*Packet, budget time.Duration, rateBps float64) (int, int, time.Duration) {
	limit := nw.cfg.AggregateLimit
	if limit < 1 {
		limit = 1
	}
	if limit > len(q) {
		limit = len(q)
	}
	var (
		n       int
		bytes   int
		airtime time.Duration
	)
	for k := 0; k < limit; k++ {
		nextBytes := bytes + q[k].Bytes
		if limit > 1 {
			nextBytes += AggregateSubheaderBytes
		}
		at, err := nw.frameTime(nextBytes, rateBps)
		if err != nil || at > budget {
			break
		}
		n = k + 1
		bytes = nextBytes
		airtime = at
	}
	return n, bytes, airtime
}

// frameTime is DataFrameTime behind the one-entry (bytes, rate) cache.
func (nw *Network) frameTime(bytes int, rateBps float64) (time.Duration, error) {
	if nw.airOK && nw.airBytes == bytes && nw.airRate == rateBps {
		return nw.airTime, nil
	}
	at, err := nw.cfg.PHY.DataFrameTime(bytes, rateBps)
	if err != nil {
		return 0, err
	}
	nw.airBytes, nw.airRate, nw.airTime, nw.airOK = bytes, rateBps, at, true
	return at, nil
}

func (nw *Network) trueToLocal(n topology.NodeID, t time.Duration) time.Duration {
	if nw.sync == nil {
		return t
	}
	errAt, err := nw.sync.ErrorAt(n, t)
	if err != nil {
		return t
	}
	return t + errAt
}

// Inject enqueues a packet on the first link of its path.
func (nw *Network) Inject(p *Packet) error {
	if p == nil || len(p.Path) == 0 {
		return errors.New("tdmaemu: packet needs a non-empty path")
	}
	if p.Hop != 0 {
		return fmt.Errorf("tdmaemu: inject with hop %d", p.Hop)
	}
	if _, err := nw.topo.Link(p.Path[0]); err != nil {
		return fmt.Errorf("tdmaemu: %w", err)
	}
	p.Created = nw.kernel.Now()
	p.arq = 0 // recycled packets must start with a fresh ARQ budget
	nw.stats.Injected++
	nw.enqueue(p.Path[0], p)
	return nil
}

// requeueHead puts an ARQ-retransmitted packet at the very front of its
// class within the link queue.
func (nw *Network) requeueHead(l topology.LinkID, p *Packet) {
	if !nw.hasLink(l) {
		return
	}
	q := nw.queues[l]
	h := nw.qhead[l]
	if len(q)-h >= nw.cfg.QueueCap {
		nw.stats.DroppedQueue++
		return
	}
	pos := h
	if p.BestEffort {
		// First best-effort position.
		pos = len(q)
		for i := h; i < len(q); i++ {
			if q[i].BestEffort {
				pos = i
				break
			}
		}
	}
	if pos == h && h > 0 {
		// A reclaimed slot sits right before the head: reuse it instead of
		// shifting the whole queue.
		h--
		q[h] = p
		nw.qhead[l] = h
		return
	}
	q = append(q, nil)
	copy(q[pos+1:], q[pos:])
	q[pos] = p
	nw.queues[l] = q
}

// enqueue inserts a packet with strict two-class priority: guaranteed
// packets go before every best-effort packet (FIFO within a class). A full
// queue drops the incoming best-effort packet, or evicts the last
// best-effort packet to admit a guaranteed one.
func (nw *Network) enqueue(l topology.LinkID, p *Packet) {
	if !nw.hasLink(l) {
		nw.stats.DroppedQueue++
		return
	}
	q := nw.queues[l]
	h := nw.qhead[l]
	if len(q)-h >= nw.cfg.QueueCap {
		if p.BestEffort {
			nw.stats.DroppedQueue++
			return
		}
		evict := -1
		for i := len(q) - 1; i >= h; i-- {
			if q[i].BestEffort {
				evict = i
				break
			}
		}
		if evict == -1 {
			nw.stats.DroppedQueue++
			return
		}
		q = append(q[:evict], q[evict+1:]...)
		nw.stats.DroppedQueue++
	}
	if p.BestEffort {
		nw.queues[l] = append(q, p)
		return
	}
	// Insert before the first best-effort packet.
	pos := len(q)
	for i := h; i < len(q); i++ {
		if q[i].BestEffort {
			pos = i
			break
		}
	}
	q = append(q, nil)
	copy(q[pos+1:], q[pos:])
	q[pos] = p
	nw.queues[l] = q
}

// onDelivery unwraps the pooled payload, dispatches the outcome and recycles
// the payload record (the medium delivers each frame exactly once).
func (nw *Network) onDelivery(d mac.Delivery) {
	b, ok := d.Frame.Payload.(*txBatch)
	if !ok {
		return
	}
	nw.deliverBatch(d, b.pkts)
	nw.putBatch(b)
}

// deliverBatch forwards or completes packets; collided receptions lose the
// whole (possibly aggregated) frame.
func (nw *Network) deliverBatch(d mac.Delivery, batch []*Packet) {
	if d.Collided {
		nw.stats.Violations++
		nw.obsViolations.Inc()
		if nw.trace != nil && len(batch) > 0 {
			nw.trace.Emit(obs.Event{T: d.At, Kind: obs.KindViolation,
				Node: int32(d.Frame.From), Link: int32(batch[0].Path[batch[0].Hop]),
				Slot: -1, Frame: -1, A: int64(d.Frame.Bytes)})
		}
		return
	}
	if len(batch) > 0 && nw.hasLink(batch[0].Path[batch[0].Hop]) && nw.failed[batch[0].Path[batch[0].Hop]] {
		nw.stats.FailureDrops++
		return
	}
	if d.Lost {
		nw.stats.ChannelLosses++
		if nw.cfg.ARQRetries > 0 && len(batch) > 0 {
			l := batch[0].Path[batch[0].Hop]
			// Requeue in reverse so the original order survives the head
			// inserts.
			for i := len(batch) - 1; i >= 0; i-- {
				p := batch[i]
				if p.arq >= nw.cfg.ARQRetries {
					continue
				}
				p.arq++
				nw.stats.ARQRetransmissions++
				nw.requeueHead(l, p)
			}
		}
		return
	}
	for _, p := range batch {
		if p.Hop == len(p.Path)-1 {
			nw.stats.Delivered++
			if nw.onDelivered != nil {
				nw.onDelivered(p, d.At)
			}
			continue
		}
		p.Hop++
		nw.enqueue(p.Path[p.Hop], p)
	}
}

// PacketsPerSlot returns how many packets of the given IP size fit in one
// data slot after the guard, with SIFS spacing between 802.11 frames and up
// to AggregateLimit packets aggregated per frame, at the MAC default rate.
func PacketsPerSlot(cfg Config, frame tdma.FrameConfig, packetBytes int) (int, error) {
	cfg.applyDefaults()
	return PacketsPerSlotAtRate(cfg, frame, packetBytes, cfg.DataRateBps)
}

// PacketsPerSlotAtRate is PacketsPerSlot at an explicit PHY rate (per-link
// adaptive modulation).
func PacketsPerSlotAtRate(cfg Config, frame tdma.FrameConfig, packetBytes int, rateBps float64) (int, error) {
	cfg.applyDefaults()
	if err := cfg.validate(frame); err != nil {
		return 0, err
	}
	if !cfg.PHY.SupportsRate(rateBps) {
		return 0, fmt.Errorf("tdmaemu: %s does not support %g b/s", cfg.PHY.Name, rateBps)
	}
	limit := cfg.AggregateLimit
	if limit < 1 {
		limit = 1
	}
	frameTime := func(k int) (time.Duration, error) {
		bytes := k * packetBytes
		if limit > 1 {
			bytes += k * AggregateSubheaderBytes
		}
		return cfg.PHY.DataFrameTime(bytes, rateBps)
	}
	budget := frame.SlotDuration() - cfg.Guard
	total := 0
	first := true
	for {
		gap := cfg.PHY.SIFS
		if first {
			gap = 0
		}
		// Largest k <= limit whose frame fits the remaining budget.
		k := 0
		var kTime time.Duration
		for try := 1; try <= limit; try++ {
			at, err := frameTime(try)
			if err != nil {
				return 0, err
			}
			if gap+at > budget {
				break
			}
			k, kTime = try, at
		}
		if k == 0 {
			return total, nil
		}
		total += k
		budget -= gap + kTime
		first = false
	}
}

// BytesPerSlot returns the IP payload bytes one slot carries for packets of
// the given size (PacketsPerSlot * packetBytes), for demand conversion.
func BytesPerSlot(cfg Config, frame tdma.FrameConfig, packetBytes int) (int, error) {
	n, err := PacketsPerSlot(cfg, frame, packetBytes)
	if err != nil {
		return 0, err
	}
	return n * packetBytes, nil
}

// BytesPerSlotAtRate is BytesPerSlot at an explicit PHY rate.
func BytesPerSlotAtRate(cfg Config, frame tdma.FrameConfig, packetBytes int, rateBps float64) (int, error) {
	n, err := PacketsPerSlotAtRate(cfg, frame, packetBytes, rateBps)
	if err != nil {
		return 0, err
	}
	return n * packetBytes, nil
}

// SlotEfficiency returns the fraction of a slot's airtime spent on IP
// payload bits when carrying back-to-back packets of the given size: the
// emulation-overhead metric of experiment R5 (guard + preamble + PLCP +
// MAC framing are all losses).
func SlotEfficiency(cfg Config, frame tdma.FrameConfig, packetBytes int) (float64, error) {
	n, err := PacketsPerSlot(cfg, frame, packetBytes)
	if err != nil {
		return 0, err
	}
	cfg.applyDefaults()
	payload := float64(n) * float64(8*packetBytes) / cfg.DataRateBps
	return payload / frame.SlotDuration().Seconds(), nil
}
