package voip

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"wimesh/internal/sim"
)

// Packet is one voice frame emitted by a source.
type Packet struct {
	// Seq is the source-local sequence number, starting at 0.
	Seq int
	// Sent is the virtual time of emission.
	Sent time.Duration
	// Bytes is the IP packet size.
	Bytes int
}

// EmitFunc receives each generated packet.
type EmitFunc func(Packet)

// SourceMode selects the talk model.
type SourceMode int

// Talk models.
const (
	// ModeCBR emits a packet every interval for the whole call.
	ModeCBR SourceMode = iota + 1
	// ModeTalkSpurt alternates exponential ON (talk) and OFF (silence)
	// periods (Brady model) and emits only during ON.
	ModeTalkSpurt
)

// Brady-model defaults for conversational speech.
const (
	DefaultTalkMean    = 1 * time.Second
	DefaultSilenceMean = 1350 * time.Millisecond
)

// Source generates voice packets on a simulation kernel.
type Source struct {
	codec Codec
	// pktBytes caches codec.PacketBytes(), recomputed from float bitrate
	// math otherwise on every tick.
	pktBytes int
	mode     SourceMode
	emit     EmitFunc
	rng      *rand.Rand

	seq     int
	talking bool
	stopped bool
}

// NewSource creates a source. For ModeTalkSpurt, rng drives the spurt
// lengths and must be non-nil.
func NewSource(codec Codec, mode SourceMode, emit EmitFunc, rng *rand.Rand) (*Source, error) {
	if err := codec.Validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, errors.New("voip: nil emit function")
	}
	switch mode {
	case ModeCBR:
	case ModeTalkSpurt:
		if rng == nil {
			return nil, errors.New("voip: talk-spurt source needs an rng")
		}
	default:
		return nil, fmt.Errorf("voip: unknown source mode %d", int(mode))
	}
	return &Source{
		codec:    codec,
		pktBytes: codec.PacketBytes(),
		mode:     mode,
		emit:     emit,
		rng:      rng,
	}, nil
}

// Start schedules the source on the kernel beginning at the given offset
// (staggering call starts decorrelates sources). Stop it with Stop.
func (s *Source) Start(k *sim.Kernel, offset time.Duration) error {
	if offset < 0 {
		return errors.New("voip: negative start offset")
	}
	// One closure per Start instead of one per event: each continuation
	// re-arms itself, so a multi-minute call schedules thousands of ticks
	// without allocating.
	var tickFn func()
	tickFn = func() { s.tick(k, tickFn) }
	switch s.mode {
	case ModeCBR:
		s.talking = true
		_, err := k.After(offset, tickFn)
		return err
	case ModeTalkSpurt:
		s.talking = true
		if _, err := k.After(offset, tickFn); err != nil {
			return err
		}
		var toggleFn func()
		toggleFn = func() { s.toggle(k, toggleFn) }
		_, err := k.After(offset+s.expDur(DefaultTalkMean), toggleFn)
		return err
	default:
		return fmt.Errorf("voip: unknown source mode %d", int(s.mode))
	}
}

// Stop halts packet generation after the current event.
func (s *Source) Stop() { s.stopped = true }

func (s *Source) tick(k *sim.Kernel, self func()) {
	if s.stopped {
		return
	}
	if s.talking {
		s.emit(Packet{Seq: s.seq, Sent: k.Now(), Bytes: s.pktBytes})
		s.seq++
	}
	if _, err := k.After(s.codec.PacketInterval, self); err != nil {
		s.stopped = true
	}
}

func (s *Source) toggle(k *sim.Kernel, self func()) {
	if s.stopped {
		return
	}
	s.talking = !s.talking
	mean := DefaultTalkMean
	if !s.talking {
		mean = DefaultSilenceMean
	}
	if _, err := k.After(s.expDur(mean), self); err != nil {
		s.stopped = true
	}
}

func (s *Source) expDur(mean time.Duration) time.Duration {
	return time.Duration(s.rng.ExpFloat64() * float64(mean))
}
