// Package wimax simulates the native IEEE 802.16 mesh data plane: the same
// conflict-free TDMA schedules as internal/mac/tdmaemu, but carried by the
// WirelessMAN-OFDM PHY the standard was designed for.
//
// The differences from the WiFi emulation are exactly the costs the paper
// trades away by using commodity hardware:
//
//   - slot boundaries come from the PHY symbol clock, so there is no
//     per-node clock error and no guard interval;
//   - a transmission burst pays one long-preamble symbol per *burst*, not a
//     PLCP preamble per packet, and MAC PDUs pack back to back into the
//     burst (6-byte generic MAC header + 4-byte CRC each);
//   - capacity per minislot follows the link's burst profile (modulation).
//
// Comparing this MAC against tdmaemu under identical schedules and
// workloads quantifies the emulation overhead end to end (experiment R14).
package wimax

import (
	"errors"
	"fmt"
	"time"

	"wimesh/internal/mac"
	"wimesh/internal/obs"
	"wimesh/internal/phy"
	"wimesh/internal/sim"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// MAC PDU framing overheads (bytes).
const (
	// GenericMACHeaderBytes is the 802.16 generic MAC header.
	GenericMACHeaderBytes = 6
	// CRCBytes is the per-PDU CRC-32.
	CRCBytes = 4
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
	// Created is the time the packet entered the source queue.
	Created time.Duration
}

// Config parameterizes the native MAC.
type Config struct {
	// PHY is the OFDM profile (default phy.DefaultWiMAXPHY).
	PHY phy.WiMAXPHY
	// Modulation is the burst profile used on every link (default
	// QPSK-3/4).
	Modulation phy.Modulation
	// QueueCap bounds each link queue (default 64).
	QueueCap int
}

func (c *Config) applyDefaults() {
	if c.PHY.BandwidthHz == 0 {
		c.PHY = phy.DefaultWiMAXPHY()
	}
	if c.Modulation == 0 {
		c.Modulation = phy.QPSK34
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
}

// DeliveredFunc receives packets that complete their path.
type DeliveredFunc func(p *Packet, at time.Duration)

// Stats aggregates counters.
type Stats struct {
	Injected      uint64
	Delivered     uint64
	DroppedQueue  uint64
	Transmissions uint64
	// Violations counts collided receptions (invalid schedules only — the
	// native PHY has no sync error).
	Violations uint64
}

// Network runs the native 802.16 mesh data plane.
type Network struct {
	cfg      Config
	topo     *topology.Network
	kernel   *sim.Kernel
	medium   *mac.Medium
	schedule *tdma.Schedule

	symbol time.Duration
	// queues is indexed by LinkID (dense, see topology.LinkID).
	queues      [][]*Packet
	onDelivered DeliveredFunc
	stats       Stats
	started     bool

	// Observability handles; nil (no-op) unless a sink is configured. The
	// native PHY has no guard, so only slot service, transmissions and
	// violations are observable.
	trace         *obs.Trace
	obsSlots      *obs.Counter
	obsTx         *obs.Counter
	obsViolations *obs.Counter
}

// New creates the native network over the topology and schedule.
func New(cfg Config, topo *topology.Network, kernel *sim.Kernel, sched *tdma.Schedule,
	interferenceRange float64, delivered DeliveredFunc) (*Network, error) {
	if topo == nil || kernel == nil || sched == nil {
		return nil, errors.New("wimax: nil topology, kernel or schedule")
	}
	cfg.applyDefaults()
	symbol, err := cfg.PHY.SymbolTime()
	if err != nil {
		return nil, fmt.Errorf("wimax: %w", err)
	}
	if sched.Config.SlotDuration() < 2*symbol {
		return nil, fmt.Errorf("wimax: %v slot below two OFDM symbols (%v)",
			sched.Config.SlotDuration(), symbol)
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
		symbol:      symbol,
		queues:      make([][]*Packet, topo.NumLinks()),
		onDelivered: delivered,
	}
	for _, nd := range topo.Nodes() {
		if err := medium.SetReceiver(nd.ID, nw.onDelivery); err != nil {
			return nil, err
		}
	}
	reg := obs.Default()
	nw.trace = obs.DefaultTrace()
	nw.obsSlots = reg.Counter("wimax.slots_served")
	nw.obsTx = reg.Counter("wimax.transmissions")
	nw.obsViolations = reg.Counter("wimax.violations")
	return nw, nil
}

// Stats returns a copy of the counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Start arms every assignment's windows from frame 0.
func (nw *Network) Start() error {
	if nw.started {
		return errors.New("wimax: already started")
	}
	nw.started = true
	for _, a := range nw.schedule.Assignments {
		lk, err := nw.topo.Link(a.Link)
		if err != nil {
			return fmt.Errorf("wimax: schedule references %w", err)
		}
		if err := nw.armWindow(a, lk, 0); err != nil {
			return err
		}
	}
	return nil
}

func (nw *Network) armWindow(a tdma.Assignment, lk topology.Link, frame int64) error {
	offset, err := nw.schedule.Config.SlotStart(a.Start)
	if err != nil {
		return err
	}
	start := time.Duration(frame)*nw.schedule.Config.FrameDuration + offset
	length := time.Duration(a.Length) * nw.schedule.Config.SlotDuration()
	_, err = nw.kernel.At(start, func() {
		nw.obsSlots.Inc()
		nw.trace.Emit(obs.Event{T: start, Kind: obs.KindSlotStart,
			Node: int32(lk.From), Link: int32(a.Link), Slot: int32(a.Start), Frame: frame,
			B: int64(len(nw.queues[a.Link]))})
		nw.serveWindow(a, lk, start+length)
		if err := nw.armWindow(a, lk, frame+1); err != nil {
			nw.started = false
		}
	})
	return err
}

// serveWindow sends one burst: MAC PDUs packed back to back after a single
// preamble symbol, sized to the window.
func (nw *Network) serveWindow(a tdma.Assignment, lk topology.Link, windowEnd time.Duration) {
	q := nw.queues[a.Link]
	if len(q) == 0 {
		return
	}
	bytesPerSym, err := nw.cfg.PHY.BytesPerSymbol(nw.cfg.Modulation)
	if err != nil {
		return
	}
	window := windowEnd - nw.kernel.Now()
	symbols := int(window / nw.symbol)
	capacity := (symbols - 1) * bytesPerSym // one symbol of preamble
	if capacity <= 0 {
		return
	}
	var (
		batch []*Packet
		used  int
	)
	for _, p := range q {
		pdu := p.Bytes + GenericMACHeaderBytes + CRCBytes
		if used+pdu > capacity {
			break
		}
		used += pdu
		batch = append(batch, p)
	}
	if len(batch) == 0 {
		return
	}
	nw.queues[a.Link] = q[len(batch):]
	nw.stats.Transmissions++
	nw.obsTx.Inc()
	// Airtime: preamble symbol + payload symbols (rounded up).
	paySyms := (used + bytesPerSym - 1) / bytesPerSym
	airtime := time.Duration(1+paySyms) * nw.symbol
	frame := mac.Frame{From: lk.From, To: lk.To, Bytes: used, Payload: batch}
	_ = nw.medium.Transmit(frame, airtime)
}

// Inject enqueues a packet on the first link of its path.
func (nw *Network) Inject(p *Packet) error {
	if p == nil || len(p.Path) == 0 {
		return errors.New("wimax: packet needs a non-empty path")
	}
	if p.Hop != 0 {
		return fmt.Errorf("wimax: inject with hop %d", p.Hop)
	}
	if _, err := nw.topo.Link(p.Path[0]); err != nil {
		return fmt.Errorf("wimax: %w", err)
	}
	p.Created = nw.kernel.Now()
	nw.stats.Injected++
	nw.enqueue(p.Path[0], p)
	return nil
}

func (nw *Network) enqueue(l topology.LinkID, p *Packet) {
	if l < 0 || int(l) >= len(nw.queues) || len(nw.queues[l]) >= nw.cfg.QueueCap {
		nw.stats.DroppedQueue++
		return
	}
	nw.queues[l] = append(nw.queues[l], p)
}

func (nw *Network) onDelivery(d mac.Delivery) {
	batch, ok := d.Frame.Payload.([]*Packet)
	if !ok {
		return
	}
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

// SlotCapacityBytes returns the IP payload bytes one data slot carries for
// packets of the given size: PDU framing and the burst preamble included.
func SlotCapacityBytes(cfg Config, frame tdma.FrameConfig, packetBytes int) (int, error) {
	cfg.applyDefaults()
	symbol, err := cfg.PHY.SymbolTime()
	if err != nil {
		return 0, err
	}
	bytesPerSym, err := cfg.PHY.BytesPerSymbol(cfg.Modulation)
	if err != nil {
		return 0, err
	}
	symbols := int(frame.SlotDuration() / symbol)
	capacity := (symbols - 1) * bytesPerSym
	if capacity <= 0 {
		return 0, nil
	}
	pdu := packetBytes + GenericMACHeaderBytes + CRCBytes
	return (capacity / pdu) * packetBytes, nil
}
