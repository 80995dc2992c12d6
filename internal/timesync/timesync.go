// Package timesync models the node clocks and the beacon-based time
// synchronization protocol that TDMA emulation over WiFi hardware depends
// on.
//
// Native 802.16 radios derive slot timing from the PHY; commodity 802.11
// hardware does not, so the emulation layer synchronizes node clocks with
// periodic beacons flooded hop-by-hop from the gateway. Each hop adds
// timestamping error and clocks drift between resynchronizations; a node's
// residual error therefore grows with its tree depth and the resync
// interval. Guard intervals must absorb this error (internal/mac/tdmaemu),
// which is the central trade-off of experiment R6.
package timesync

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"wimesh/internal/obs"
	"wimesh/internal/sim"
	"wimesh/internal/topology"
)

// Clock models a node's free-running clock: local = offset + (1+ppm*1e-6) * t.
type Clock struct {
	// Offset is the additive error at true time zero.
	Offset time.Duration
	// DriftPPM is the rate error in parts per million.
	DriftPPM float64
}

// Read returns the clock's local time at true time t.
func (c Clock) Read(t time.Duration) time.Duration {
	drift := time.Duration(float64(t) * c.DriftPPM * 1e-6)
	return t + c.Offset + drift
}

// Error returns the clock error (local - true) at true time t.
func (c Clock) Error(t time.Duration) time.Duration {
	return c.Read(t) - t
}

// AdjustTo sets the offset so that Read(t) equals reference, leaving the
// drift rate unchanged (offset-only correction, as a beacon resync does).
func (c *Clock) AdjustTo(t, reference time.Duration) {
	c.Offset += reference - c.Read(t)
}

// Config parameterizes the synchronization protocol.
type Config struct {
	// PerHopError is the standard deviation of the timestamping error
	// added per beacon relay hop.
	PerHopError time.Duration
	// ResyncInterval is the beacon period.
	ResyncInterval time.Duration
	// MaxDriftPPM bounds the per-node drift magnitude (drawn uniformly in
	// [-max, +max]).
	MaxDriftPPM float64
	// InitialOffsetStd is the standard deviation of node clock offsets
	// before the first synchronization.
	InitialOffsetStd time.Duration
}

// DefaultConfig returns values representative of paper-era commodity WiFi
// hardware: 10 us per-hop timestamping error, 1 s beacon period, 20 ppm
// oscillators.
func DefaultConfig() Config {
	return Config{
		PerHopError:      10 * time.Microsecond,
		ResyncInterval:   time.Second,
		MaxDriftPPM:      20,
		InitialOffsetStd: time.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PerHopError < 0 || c.InitialOffsetStd < 0 {
		return errors.New("timesync: negative error parameter")
	}
	if c.ResyncInterval <= 0 {
		return errors.New("timesync: non-positive resync interval")
	}
	if c.MaxDriftPPM < 0 {
		return errors.New("timesync: negative drift bound")
	}
	return nil
}

// Sync simulates the synchronization state of every node in a gateway-rooted
// mesh. The gateway's clock is the time reference (zero error by
// definition).
//
// Node state is dense, indexed by NodeID, and all RNG draws happen in
// ascending node order — both at construction and on every resync — so a
// given seed always produces the same per-node error sequence regardless of
// how the caller's depth map was built (map iteration order must never leak
// into simulation results).
type Sync struct {
	cfg     Config
	depths  []int
	clocks  []Clock
	present []bool
	rng     *rand.Rand

	// Observability handles, captured from the process default at
	// construction; nil (no-op) unless a registry/trace is installed. The
	// RNG draw sequence is identical either way — observation only reads the
	// post-resync state.
	obsRounds  *obs.Counter
	obsErrHist *obs.Histogram
	obsTrace   *obs.Trace
}

// New creates the synchronization model for nodes with the given tree
// depths (gateway depth 0). Clocks start with random offsets and drifts.
func New(cfg Config, depths map[topology.NodeID]int, seed int64) (*Sync, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(depths) == 0 {
		return nil, errors.New("timesync: no nodes")
	}
	maxID := topology.NodeID(0)
	for n, d := range depths {
		if d < 0 {
			return nil, fmt.Errorf("timesync: negative depth %d for node %d", d, n)
		}
		if n < 0 {
			return nil, fmt.Errorf("timesync: negative node id %d", n)
		}
		if n > maxID {
			maxID = n
		}
	}
	rng := sim.NewRNG(seed, 101)
	s := &Sync{
		cfg:     cfg,
		depths:  make([]int, maxID+1),
		clocks:  make([]Clock, maxID+1),
		present: make([]bool, maxID+1),
		rng:     rng,
	}
	if reg := obs.Default(); reg != nil {
		s.obsRounds = reg.Counter("timesync.resync_rounds")
		s.obsErrHist = reg.Histogram("timesync.post_resync_error_ns", -1e6, 1e6, 64)
	}
	s.obsTrace = obs.DefaultTrace()
	// Draw initial clock state in ascending node order for determinism.
	for n := topology.NodeID(0); n <= maxID; n++ {
		d, ok := depths[n]
		if !ok {
			continue
		}
		s.present[n] = true
		s.depths[n] = d
		s.clocks[n].DriftPPM = (rng.Float64()*2 - 1) * cfg.MaxDriftPPM
		if d > 0 {
			s.clocks[n].Offset = time.Duration(rng.NormFloat64() * float64(cfg.InitialOffsetStd))
		}
	}
	return s, nil
}

// Start schedules periodic resynchronization rounds on the kernel, beginning
// immediately (time 0) and repeating every ResyncInterval. The returned stop
// function cancels future rounds.
func (s *Sync) Start(k *sim.Kernel) (stop func(), err error) {
	var (
		id      sim.EventID
		stopped bool
	)
	var round func()
	round = func() {
		s.Resync(k.Now())
		if stopped {
			return
		}
		nid, err := k.After(s.cfg.ResyncInterval, round)
		if err == nil {
			id = nid
		}
	}
	id, err = k.After(0, round)
	if err != nil {
		return nil, err
	}
	return func() {
		stopped = true
		k.Cancel(id)
	}, nil
}

// Resync performs one beacon flood at true time t: every node receives the
// gateway reference over depth hops, each adding independent Gaussian
// timestamping error, and applies an offset correction. Nodes are processed
// in ascending ID order so the RNG draw sequence is reproducible.
func (s *Sync) Resync(t time.Duration) {
	s.obsRounds.Inc()
	for n := range s.clocks {
		if !s.present[n] {
			continue
		}
		c := &s.clocks[n]
		d := s.depths[n]
		if d == 0 {
			c.Offset = 0
			c.DriftPPM = 0 // the gateway defines the reference
			continue
		}
		errSum := 0.0
		for h := 0; h < d; h++ {
			errSum += s.rng.NormFloat64() * float64(s.cfg.PerHopError)
		}
		// The node aligns its clock to reference + accumulated error.
		c.AdjustTo(t, t+time.Duration(errSum))
		if s.obsErrHist != nil || s.obsTrace != nil {
			residual := c.Error(t)
			s.obsErrHist.Observe(float64(residual.Nanoseconds()))
			s.obsTrace.Emit(obs.Event{T: t, Kind: obs.KindResync,
				Node: int32(n), Link: -1, Slot: -1, Frame: -1,
				A: residual.Nanoseconds()})
		}
	}
}

// ErrorAt returns the clock error of node n at true time t.
func (s *Sync) ErrorAt(n topology.NodeID, t time.Duration) (time.Duration, error) {
	if n < 0 || int(n) >= len(s.clocks) || !s.present[n] {
		return 0, fmt.Errorf("timesync: unknown node %d", n)
	}
	return s.clocks[n].Error(t), nil
}
