package schedule

import (
	"fmt"
	"time"

	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// PathDelay computes the end-to-end scheduling delay of a path under a
// concrete schedule: the time from the start of the first link's
// transmission window to the end of the last link's window, forwarding at
// each relay in the earliest window that starts no sooner than the previous
// hop finished. Windows repeat every frame, so a hop whose window precedes
// the previous hop's window in the frame costs a wrap into the next frame —
// the scheduling delay the delay-aware order minimizes.
//
// The constant worst-case wait for the first window (up to one frame) is not
// included.
func PathDelay(s *tdma.Schedule, path topology.Path) (time.Duration, error) {
	if len(path) == 0 {
		return 0, nil
	}
	frame := s.Config.FrameDuration
	first, err := s.TxWindows(path[0])
	if err != nil {
		return 0, err
	}
	if len(first) == 0 {
		return 0, fmt.Errorf("%w: link %d has no transmission window", ErrInfeasible, path[0])
	}
	end := first[0][1]
	for _, l := range path[1:] {
		ws, err := s.TxWindows(l)
		if err != nil {
			return 0, err
		}
		if len(ws) == 0 {
			return 0, fmt.Errorf("%w: link %d has no transmission window", ErrInfeasible, l)
		}
		_, end = earliestWindowAtOrAfter(ws, end, frame)
	}
	return end - first[0][0], nil
}

// earliestWindowAtOrAfter returns the earliest absolute window [start, end)
// among the frame-periodic windows ws whose start is >= t.
func earliestWindowAtOrAfter(ws [][2]time.Duration, t time.Duration, frame time.Duration) (time.Duration, time.Duration) {
	bestStart := time.Duration(1<<62 - 1)
	var bestEnd time.Duration
	for _, w := range ws {
		off, length := w[0], w[1]-w[0]
		// Smallest k with off + k*frame >= t.
		var k int64
		if t > off {
			k = int64((t - off + frame - 1) / frame)
		}
		abs := off + time.Duration(k)*frame
		if abs < bestStart {
			bestStart, bestEnd = abs, abs+length
		}
	}
	return bestStart, bestEnd
}

// MaxPathDelay returns the maximum PathDelay over the problem's flows —
// the objective of the min-max delay order optimization.
func MaxPathDelay(p *Problem, s *tdma.Schedule) (time.Duration, error) {
	var maxD time.Duration
	for i, f := range p.Flows {
		d, err := PathDelay(s, f.Path)
		if err != nil {
			return 0, fmt.Errorf("flow %d: %w", i, err)
		}
		maxD = max(maxD, d)
	}
	return maxD, nil
}
