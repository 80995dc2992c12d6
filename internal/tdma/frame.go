// Package tdma models the IEEE 802.16 mesh TDMA frame structure and the
// conflict-free link schedules that fill it.
//
// An 802.16 mesh frame is split into a control subframe (network
// configuration and distributed-scheduling messages) and a data subframe
// divided into minislots. A Schedule assigns each mesh link a contiguous
// range of minislots per frame; the schedule repeats every frame. The same
// structure is reproduced over WiFi hardware by the emulation MAC
// (internal/mac/tdmaemu), with longer slots to amortize 802.11 overheads.
package tdma

import (
	"errors"
	"fmt"
	"time"
)

// FrameConfig describes the TDMA frame layout.
type FrameConfig struct {
	// FrameDuration is the total frame length (802.16 allows 2.5-20 ms).
	FrameDuration time.Duration
	// ControlSlots is the number of transmit opportunities in the control
	// subframe.
	ControlSlots int
	// ControlSlotDuration is the length of one control transmit
	// opportunity.
	ControlSlotDuration time.Duration
	// DataSlots is the number of minislots in the data subframe.
	DataSlots int
}

// Validation errors.
var (
	ErrBadFrameConfig = errors.New("tdma: bad frame config")
	ErrBadAssignment  = errors.New("tdma: bad assignment")
	ErrConflict       = errors.New("tdma: schedule has conflicting overlaps")
)

// DefaultWiMAXFrame returns the native 802.16 mesh layout: 10 ms frames,
// 7 control transmit opportunities and 256 data minislots.
func DefaultWiMAXFrame() FrameConfig {
	return FrameConfig{
		FrameDuration:       10 * time.Millisecond,
		ControlSlots:        7,
		ControlSlotDuration: 77 * time.Microsecond, // one MSH-NCFG opportunity (~ 3 OFDM symbols)
		DataSlots:           256,
	}
}

// DefaultEmulationFrame returns the frame layout used when the mesh frame is
// emulated over 802.11 hardware: slots long enough (1 ms+) to amortize WiFi
// preambles and guard intervals. 20 ms frames with 16 data slots and 2
// control beacon slots.
func DefaultEmulationFrame() FrameConfig {
	return FrameConfig{
		FrameDuration:       20 * time.Millisecond,
		ControlSlots:        2,
		ControlSlotDuration: 1 * time.Millisecond,
		DataSlots:           16,
	}
}

// Validate checks internal consistency of the configuration.
func (c FrameConfig) Validate() error {
	if c.FrameDuration <= 0 {
		return fmt.Errorf("%w: non-positive frame duration %v", ErrBadFrameConfig, c.FrameDuration)
	}
	if c.ControlSlots < 0 || c.ControlSlotDuration < 0 {
		return fmt.Errorf("%w: negative control subframe", ErrBadFrameConfig)
	}
	if c.ControlSlots > 0 && c.ControlSlotDuration == 0 {
		return fmt.Errorf("%w: control slots without duration", ErrBadFrameConfig)
	}
	if c.DataSlots <= 0 {
		return fmt.Errorf("%w: need at least one data slot, got %d", ErrBadFrameConfig, c.DataSlots)
	}
	if c.ControlSubframe() >= c.FrameDuration {
		return fmt.Errorf("%w: control subframe %v leaves no data subframe in %v",
			ErrBadFrameConfig, c.ControlSubframe(), c.FrameDuration)
	}
	return nil
}

// ControlSubframe returns the control subframe duration.
func (c FrameConfig) ControlSubframe() time.Duration {
	return time.Duration(c.ControlSlots) * c.ControlSlotDuration
}

// DataSubframe returns the data subframe duration.
func (c FrameConfig) DataSubframe() time.Duration {
	return c.FrameDuration - c.ControlSubframe()
}

// SlotDuration returns the duration of one data minislot.
func (c FrameConfig) SlotDuration() time.Duration {
	return c.DataSubframe() / time.Duration(c.DataSlots)
}

// SlotStart returns the offset of data slot i from the start of the frame.
func (c FrameConfig) SlotStart(i int) (time.Duration, error) {
	if i < 0 || i >= c.DataSlots {
		return 0, fmt.Errorf("%w: slot %d out of [0,%d)", ErrBadAssignment, i, c.DataSlots)
	}
	return c.ControlSubframe() + time.Duration(i)*c.SlotDuration(), nil
}

// FrameOfTime returns the frame index and offset within the frame of an
// absolute time t (time 0 = start of frame 0).
func (c FrameConfig) FrameOfTime(t time.Duration) (frame int64, offset time.Duration) {
	if t < 0 {
		f := (t - c.FrameDuration + 1) / c.FrameDuration
		return int64(f), t - f*c.FrameDuration
	}
	return int64(t / c.FrameDuration), t % c.FrameDuration
}
