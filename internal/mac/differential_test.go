package mac

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"wimesh/internal/obs"
	"wimesh/internal/sim"
	"wimesh/internal/topology"
)

// refMedium is the pre-dense reference implementation (maps keyed by NodeID,
// lazily cached audibility, per-call audience allocation), kept as the
// behavioral oracle for the slice/bitset medium.
type refMedium struct {
	net    *topology.Network
	kernel *sim.Kernel
	rangeM float64

	active      map[*refTransmission]struct{}
	busyCount   map[topology.NodeID]int
	busyEpoch   map[topology.NodeID]uint64
	idleWaiters map[topology.NodeID][]func()
	audible     map[[2]topology.NodeID]bool
	deliver     map[topology.NodeID]DeliverFunc

	lossModel func(from, to topology.NodeID) float64
	lossRNG   *rand.Rand
}

type refTransmission struct {
	frame      Frame
	start, end time.Duration
	hit        bool
}

func newRefMedium(net *topology.Network, kernel *sim.Kernel, rangeM float64) *refMedium {
	return &refMedium{
		net:         net,
		kernel:      kernel,
		rangeM:      rangeM,
		active:      make(map[*refTransmission]struct{}),
		busyCount:   make(map[topology.NodeID]int),
		busyEpoch:   make(map[topology.NodeID]uint64),
		idleWaiters: make(map[topology.NodeID][]func()),
		audible:     make(map[[2]topology.NodeID]bool),
		deliver:     make(map[topology.NodeID]DeliverFunc),
	}
}

func (m *refMedium) SetLossModel(fn func(from, to topology.NodeID) float64, seed int64) {
	m.lossModel = fn
	m.lossRNG = sim.NewRNG(seed, 771)
}

func (m *refMedium) SetReceiver(n topology.NodeID, fn DeliverFunc) {
	m.deliver[n] = fn
}

func (m *refMedium) Audible(from, at topology.NodeID) (bool, error) {
	if from == at {
		return true, nil
	}
	key := [2]topology.NodeID{from, at}
	if v, ok := m.audible[key]; ok {
		return v, nil
	}
	d, err := m.net.Distance(from, at)
	if err != nil {
		return false, err
	}
	v := d <= m.rangeM
	m.audible[key] = v
	return v, nil
}

func (m *refMedium) Busy(n topology.NodeID) bool        { return m.busyCount[n] > 0 }
func (m *refMedium) BusyEpoch(n topology.NodeID) uint64 { return m.busyEpoch[n] }

func (m *refMedium) WhenIdle(n topology.NodeID, fn func()) error {
	if !m.Busy(n) {
		_, err := m.kernel.After(0, fn)
		return err
	}
	m.idleWaiters[n] = append(m.idleWaiters[n], fn)
	return nil
}

func (m *refMedium) Transmit(frame Frame, airtime time.Duration) error {
	return m.transmit(frame, airtime, false)
}

func (m *refMedium) TransmitProtected(frame Frame, airtime time.Duration) error {
	return m.transmit(frame, airtime, true)
}

func (m *refMedium) transmit(frame Frame, airtime time.Duration, protect bool) error {
	if airtime <= 0 {
		return nil
	}
	now := m.kernel.Now()
	tx := &refTransmission{frame: frame, start: now, end: now + airtime}
	for other := range m.active {
		if aud, err := m.Audible(frame.From, other.frame.To); err == nil && aud {
			other.hit = true
		}
		if aud, err := m.Audible(other.frame.From, frame.To); err == nil && aud {
			tx.hit = true
		}
	}
	m.active[tx] = struct{}{}
	heard := m.audienceOf(frame.From)
	if protect {
		heard = unionNodes(heard, m.audienceOf(frame.To))
	}
	for _, n := range heard {
		if m.busyCount[n] == 0 {
			m.busyEpoch[n]++
		}
		m.busyCount[n]++
	}
	_, err := m.kernel.After(airtime, func() { m.finish(tx, heard) })
	return err
}

func unionNodes(a, b []topology.NodeID) []topology.NodeID {
	seen := make(map[topology.NodeID]bool, len(a)+len(b))
	out := make([]topology.NodeID, 0, len(a)+len(b))
	for _, n := range a {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range b {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func (m *refMedium) finish(tx *refTransmission, heard []topology.NodeID) {
	delete(m.active, tx)
	for _, n := range heard {
		m.busyCount[n]--
		if m.busyCount[n] == 0 {
			waiters := m.idleWaiters[n]
			m.idleWaiters[n] = nil
			for _, fn := range waiters {
				fn()
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
	if fn, ok := m.deliver[tx.frame.To]; ok {
		fn(Delivery{Frame: tx.frame, At: m.kernel.Now(), Collided: tx.hit, Lost: lost})
	}
}

func (m *refMedium) audienceOf(from topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	for _, nd := range m.net.Nodes() {
		if aud, _ := m.Audible(from, nd.ID); aud {
			out = append(out, nd.ID)
		}
	}
	return out
}

// channel is the medium surface the differential drivers run against; both
// Medium and refMedium satisfy it.
type channel interface {
	Busy(topology.NodeID) bool
	BusyEpoch(topology.NodeID) uint64
	WhenIdle(topology.NodeID, func()) error
	Transmit(Frame, time.Duration) error
	TransmitProtected(Frame, time.Duration) error
}

// obsDelivery is one observed delivery.
type obsDelivery struct {
	at       time.Duration
	from, to topology.NodeID
	collided bool
	lost     bool
}

// mediumState snapshots everything the differential tests compare. Every
// node has a receiver, so the deliveries record every transmission's
// outcome.
type mediumState struct {
	epochs     []uint64
	deliveries []obsDelivery
}

func randomTopo(rng *rand.Rand, n int) *topology.Network {
	net := topology.NewNetwork()
	for i := 0; i < n; i++ {
		net.AddNode(rng.Float64()*600, rng.Float64()*600)
	}
	return net
}

// driveRandom fires a randomized transmission workload: staggered start
// times, overlapping airtimes, a sprinkle of protected exchanges and
// WhenIdle re-arms. The rng must be private to this driver instance.
func driveRandom(t *testing.T, k *sim.Kernel, ch channel, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < 400; i++ {
		from := topology.NodeID(rng.Intn(n))
		to := topology.NodeID(rng.Intn(n))
		if to == from {
			to = topology.NodeID((int(to) + 1) % n)
		}
		at := time.Duration(rng.Intn(20000)) * time.Microsecond
		airtime := time.Duration(1+rng.Intn(900)) * time.Microsecond
		protected := rng.Intn(5) == 0
		whenIdle := rng.Intn(7) == 0
		if _, err := k.At(at, func() {
			send := func() {
				var err error
				if protected {
					err = ch.TransmitProtected(Frame{From: from, To: to, Bytes: 500}, airtime)
				} else {
					err = ch.Transmit(Frame{From: from, To: to, Bytes: 500}, airtime)
				}
				if err != nil {
					t.Errorf("transmit %d->%d: %v", from, to, err)
				}
			}
			if whenIdle {
				if err := ch.WhenIdle(from, send); err != nil {
					t.Errorf("WhenIdle: %v", err)
				}
				return
			}
			send()
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
}

// driveDCFLike models the DCF access pattern: each sender carrier-senses,
// defers while busy, then transmits after a pseudo-backoff, re-arming on
// each completed exchange — the busy/epoch/idle-waiter hot path.
func driveDCFLike(t *testing.T, k *sim.Kernel, ch channel, rng *rand.Rand, senders []topology.NodeID, rx topology.NodeID, packets int) {
	t.Helper()
	var arm func(s topology.NodeID, remaining int)
	arm = func(s topology.NodeID, remaining int) {
		if remaining == 0 {
			return
		}
		backoff := time.Duration(10+rng.Intn(200)) * time.Microsecond
		if _, err := k.After(backoff, func() {
			if ch.Busy(s) {
				if err := ch.WhenIdle(s, func() { arm(s, remaining) }); err != nil {
					t.Errorf("WhenIdle: %v", err)
				}
				return
			}
			if err := ch.Transmit(Frame{From: s, To: rx, Bytes: 1500}, 1200*time.Microsecond); err != nil {
				t.Errorf("transmit: %v", err)
				return
			}
			arm(s, remaining-1)
		}); err != nil {
			t.Error(err)
		}
	}
	for _, s := range senders {
		arm(s, packets)
	}
	k.Run()
}

// driveTDMALike models the emulation pattern: fixed slot windows per link,
// back-to-back frames inside each window, repeating over many TDMA frames.
func driveTDMALike(t *testing.T, k *sim.Kernel, ch channel, links [][2]topology.NodeID, frames int) {
	t.Helper()
	const slot = time.Millisecond
	frameDur := time.Duration(len(links)) * slot
	for f := 0; f < frames; f++ {
		for i, l := range links {
			l := l
			start := time.Duration(f)*frameDur + time.Duration(i)*slot
			if _, err := k.At(start, func() {
				// Three back-to-back 250 us frames inside the window.
				for b := 0; b < 3; b++ {
					b := b
					_, err := k.After(time.Duration(b)*260*time.Microsecond, func() {
						if err := ch.Transmit(Frame{From: l[0], To: l[1], Bytes: 200}, 250*time.Microsecond); err != nil {
							t.Errorf("transmit: %v", err)
						}
					})
					if err != nil {
						t.Error(err)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Run()
}

func snapshotDense(m *Medium, n int, deliveries []obsDelivery) mediumState {
	s := mediumState{deliveries: deliveries}
	for i := 0; i < n; i++ {
		s.epochs = append(s.epochs, m.BusyEpoch(topology.NodeID(i)))
	}
	return s
}

func snapshotRef(m *refMedium, n int, deliveries []obsDelivery) mediumState {
	s := mediumState{deliveries: deliveries}
	for i := 0; i < n; i++ {
		s.epochs = append(s.epochs, m.busyEpoch[topology.NodeID(i)])
	}
	return s
}

func compareStates(t *testing.T, tag string, got, want mediumState) {
	t.Helper()
	for i := range got.epochs {
		if got.epochs[i] != want.epochs[i] {
			t.Fatalf("%s: busyEpoch[%d] = %d, ref %d", tag, i, got.epochs[i], want.epochs[i])
		}
	}
	if len(got.deliveries) != len(want.deliveries) {
		t.Fatalf("%s: %d deliveries, ref %d", tag, len(got.deliveries), len(want.deliveries))
	}
	for i := range got.deliveries {
		if got.deliveries[i] != want.deliveries[i] {
			t.Fatalf("%s: delivery %d = %+v, ref %+v", tag, i, got.deliveries[i], want.deliveries[i])
		}
	}
}

// buildPair constructs a dense and a reference medium over the same
// geometry, each on its own kernel, with recording receivers on every node.
func buildPair(t *testing.T, net *topology.Network, rangeM float64, lossSeed int64) (*sim.Kernel, *Medium, *[]obsDelivery, *sim.Kernel, *refMedium, *[]obsDelivery) {
	t.Helper()
	n := net.NumNodes()
	kd := sim.NewKernel()
	md, err := NewMedium(net, kd, rangeM)
	if err != nil {
		t.Fatal(err)
	}
	kr := sim.NewKernel()
	mr := newRefMedium(net, kr, rangeM)
	var gotObs, refObs []obsDelivery
	for i := 0; i < n; i++ {
		i := i
		if err := md.SetReceiver(topology.NodeID(i), func(d Delivery) {
			gotObs = append(gotObs, obsDelivery{d.At, d.Frame.From, d.Frame.To, d.Collided, d.Lost})
		}); err != nil {
			t.Fatal(err)
		}
		mr.SetReceiver(topology.NodeID(i), func(d Delivery) {
			refObs = append(refObs, obsDelivery{d.At, d.Frame.From, d.Frame.To, d.Collided, d.Lost})
		})
	}
	if lossSeed != 0 {
		loss := func(from, to topology.NodeID) float64 { return 0.1 }
		if err := md.SetLossModel(loss, lossSeed); err != nil {
			t.Fatal(err)
		}
		mr.SetLossModel(loss, lossSeed)
	}
	return kd, md, &gotObs, kr, mr, &refObs
}

// TestDifferentialRandomWorkload compares the dense medium against the
// reference on randomized overlapping workloads across several seeds,
// including protected exchanges, WhenIdle re-arms and a loss model.
func TestDifferentialRandomWorkload(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		topoRNG := rand.New(rand.NewSource(seed))
		net := randomTopo(topoRNG, 3+topoRNG.Intn(12))
		n := net.NumNodes()
		lossSeed := int64(0)
		if seed%2 == 0 {
			lossSeed = seed * 13
		}
		kd, md, gotObs, kr, mr, refObs := buildPair(t, net, 250, lossSeed)
		driveRandom(t, kd, md, rand.New(rand.NewSource(seed*101)), n)
		driveRandom(t, kr, mr, rand.New(rand.NewSource(seed*101)), n)
		compareStates(t, "random", snapshotDense(md, n, *gotObs), snapshotRef(mr, n, *refObs))
	}
}

// TestDifferentialDCFScenario compares the media under a DCF-style
// carrier-sense/backoff/idle-waiter workload: many senders contending for
// one receiver, all within carrier-sense range.
func TestDifferentialDCFScenario(t *testing.T) {
	net := topology.NewNetwork()
	rx := net.AddNode(0, 0)
	var senders []topology.NodeID
	for i := 0; i < 8; i++ {
		senders = append(senders, net.AddNode(10+float64(i), 10))
	}
	kd, md, gotObs, kr, mr, refObs := buildPair(t, net, 500, 0)
	driveDCFLike(t, kd, md, rand.New(rand.NewSource(7)), senders, rx, 30)
	driveDCFLike(t, kr, mr, rand.New(rand.NewSource(7)), senders, rx, 30)
	compareStates(t, "dcf", snapshotDense(md, net.NumNodes(), *gotObs), snapshotRef(mr, net.NumNodes(), *refObs))
}

// TestDifferentialTDMAScenario compares the media under the emulation
// pattern: slotted windows on a chain, back-to-back frames per window.
func TestDifferentialTDMAScenario(t *testing.T) {
	net := topology.NewNetwork()
	for i := 0; i < 5; i++ {
		net.AddNode(float64(i)*100, 0)
	}
	links := [][2]topology.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	kd, md, gotObs, kr, mr, refObs := buildPair(t, net, 250, 0)
	driveTDMALike(t, kd, md, links, 50)
	driveTDMALike(t, kr, mr, links, 50)
	compareStates(t, "tdma", snapshotDense(md, net.NumNodes(), *gotObs), snapshotRef(mr, net.NumNodes(), *refObs))
}

// TestTransmitFailureLeavesMediumClean forces the kernel's event scheduling
// to fail (virtual-clock overflow) and checks the failed transmission left
// no trace: no active entry, no raised busy counts, no counter movement.
func TestTransmitFailureLeavesMediumClean(t *testing.T) {
	net := topology.NewNetwork()
	a := net.AddNode(0, 0)
	b := net.AddNode(100, 0)
	k := sim.NewKernel()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	m, err := NewMedium(net, k, 250)
	obs.SetDefault(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Push the clock to the edge so now + airtime overflows and After fails.
	k.RunUntil(time.Duration(math.MaxInt64) - time.Microsecond)
	epochA, epochB := m.BusyEpoch(a), m.BusyEpoch(b)
	if err := m.Transmit(Frame{From: a, To: b, Bytes: 100}, time.Millisecond); err == nil {
		t.Fatal("overflowing transmission accepted")
	}
	if m.Busy(a) || m.Busy(b) {
		t.Error("failed transmission left the channel busy")
	}
	if m.BusyEpoch(a) != epochA || m.BusyEpoch(b) != epochB {
		t.Error("failed transmission bumped a busy epoch")
	}
	if sent := reg.Snapshot().Counters["mac.tx_started"]; sent != 0 {
		t.Errorf("failed transmission counted as started %d times", sent)
	}
	if len(m.active) != 0 {
		t.Errorf("failed transmission left %d active entries", len(m.active))
	}
	// The same error path with another transmission in flight must not
	// corrupt the in-flight one either: restart on a fresh kernel.
	k2 := sim.NewKernel()
	m2, err := NewMedium(net, k2, 250)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	if err := m2.SetReceiver(b, func(d Delivery) {
		if !d.Collided {
			delivered++
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Park the clock near the edge, start one in-flight transmission that
	// still fits, then one whose end time overflows.
	k2.RunUntil(time.Duration(math.MaxInt64) - 2*time.Millisecond)
	if err := m2.Transmit(Frame{From: a, To: b, Bytes: 100}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m2.Transmit(Frame{From: a, To: b, Bytes: 100}, 5*time.Millisecond); err == nil {
		t.Fatal("overflowing transmission accepted")
	}
	k2.Run()
	if delivered != 1 {
		t.Errorf("in-flight transmission delivered %d times, want 1", delivered)
	}
}

// TestMediumTransmitSteadyStateAllocs requires the Transmit/finish hot path
// (including protected exchanges) to be allocation-free once pools are warm.
func TestMediumTransmitSteadyStateAllocs(t *testing.T) {
	net := topology.NewNetwork()
	a := net.AddNode(0, 0)
	b := net.AddNode(100, 0)
	net.AddNode(200, 0)
	k := sim.NewKernel()
	m, err := NewMedium(net, k, 250)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetReceiver(b, func(Delivery) {}); err != nil {
		t.Fatal(err)
	}
	frame := Frame{From: a, To: b, Bytes: 1000}
	send := func() {
		if err := m.Transmit(frame, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := m.TransmitProtected(frame, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	for i := 0; i < 50; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("Transmit allocs/op = %g, want 0", allocs)
	}
}
