package core

import (
	"math"
	"sort"
	"time"

	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// qualityMonitor watches a run's per-flow measurements and decides when the
// run can be aborted early because some flow provably cannot recover toll
// quality. Every abort test is conservative: it scores the flow against the
// best possible continuation of the run, so an abort can only fire on runs
// whose final verdict would have been a quality failure anyway. Skipping a
// check is always sound too — the monitor is an accelerator, never an
// oracle.
//
// Two independent proofs are checked:
//
// Delay bound: with the source emitting at most one measured packet per
// PacketInterval, the flow's final delivered-sample count is at most
// S_max = sent_now + remaining-interval count. The playout planner sizes the
// jitter buffer at the ceil((1-target)·n)-th smallest delay; even if every
// outstanding packet (Z = S_max - received_now of them) lands with zero
// delay, that order statistic is at least the (keep-Z)-th smallest delay
// observed so far. If the E-model rating at that buffer depth — with zero
// loss — is already below toll quality, no continuation can pass.
//
// Loss bound: let D be the smallest jitter-buffer depth that already breaks
// toll quality on its own (badDelay). A measured packet is provably bad if
// it was delivered with delay > D, or has been outstanding for longer than
// D — if the latter ever arrives its delay exceeds D, otherwise it is a
// network loss. In any continuation, either the final buffer is >= D (delay
// impairment alone fails) or every bad packet counts toward the final
// lost-or-late fraction, which is at least bad/S_max. If the E-model rating
// at the minimal mouth-to-ear delay with that loss fraction is below toll
// quality, no continuation can pass. This catches flows whose delays look
// healthy but whose deliveries are collapsing.
type qualityMonitor struct {
	codec  voip.Codec
	lo, hi time.Duration // measurement window over packet send times
	flows  []topology.Flow
	cs     *collectorSet
	// screenLimit is the largest jitter-buffer depth (in seconds) still
	// compatible with toll quality at zero loss. Flows whose running P²
	// 99th-percentile delay estimate sits clearly below it skip the exact
	// (sorting) delay check.
	screenLimit float64
	// minDelayImpairment is Id at the minimal possible mouth-to-ear delay
	// (zero network delay and buffer), used by the loss bound.
	minDelayImpairment float64
}

func newQualityMonitor(codec voip.Codec, lo, hi time.Duration, flows []topology.Flow, cs *collectorSet) *qualityMonitor {
	limit := bufferLimit(codec)
	if limit < 0 {
		limit = 0
	}
	// The loss bound's case split needs a provably failing depth, one
	// bisection tolerance above the largest passing one.
	cs.badDelay = limit + time.Microsecond
	return &qualityMonitor{
		codec:              codec,
		lo:                 lo,
		hi:                 hi,
		flows:              flows,
		cs:                 cs,
		screenLimit:        limit.Seconds(),
		minDelayImpairment: voip.DelayImpairment(voip.EndToEndDelay(codec, 0, 0)),
	}
}

// bufferLimit returns the largest jitter-buffer depth whose zero-loss
// E-model rating still meets toll quality (negative when even zero delay
// fails), found by bisection so it can never drift from the DelayImpairment
// formula it inverts.
func bufferLimit(codec voip.Codec) time.Duration {
	budget := voip.R0 - voip.TollQualityR - voip.EffectiveEquipmentImpairment(codec, 0)
	passes := func(d time.Duration) bool {
		return voip.DelayImpairment(voip.EndToEndDelay(codec, d, 0)) <= budget
	}
	if !passes(0) {
		return -1
	}
	lo, hi := time.Duration(0), 10*time.Second
	for hi-lo > time.Microsecond {
		mid := lo + (hi-lo)/2
		if passes(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// maxFutureSends bounds the flow's final measured send count: the source
// emits at most one packet per interval in both CBR and talk-spurt modes.
func (m *qualityMonitor) maxFutureSends(now time.Duration) int {
	if now >= m.hi {
		return 0
	}
	return int((m.hi-now)/m.codec.PacketInterval) + 1
}

// shouldAbort reports whether, at simulation time now, some flow provably
// cannot reach toll quality by the end of the run.
func (m *qualityMonitor) shouldAbort(now time.Duration) bool {
	if now <= m.lo {
		return false
	}
	future := m.maxFutureSends(now)
	for i := range m.flows {
		f := &m.flows[i]
		c := &m.cs.cols[int(f.ID)]
		if c.sent == 0 {
			continue
		}
		sMax := c.sent + future
		// Loss bound (O(1) amortized): provably bad packets vs. the best
		// possible final packet count.
		bad := c.badDelivered + c.agedUndelivered(now-m.cs.badDelay)
		if bad > 0 {
			badFrac := float64(bad) / float64(sMax)
			r := voip.R0 - m.minDelayImpairment - voip.EffectiveEquipmentImpairment(m.codec, badFrac)
			if r < voip.TollQualityR {
				return true
			}
		}
		if c.received == 0 {
			continue
		}
		// P² screen: a running 99th-percentile estimate well under the
		// buffer limit means the exact order statistic cannot be provably
		// failing; skipping the sort is sound because skipping any check is.
		if c.screen.Ready() && c.screen.Estimate() < 0.9*m.screenLimit {
			continue
		}
		outstanding := sMax - c.received
		if outstanding < 0 {
			outstanding = 0
			sMax = c.received
		}
		keep := int(math.Ceil((1 - playoutLateTarget) * float64(sMax)))
		j := keep - 1 - outstanding
		if j < 0 {
			// Outstanding zero-delay arrivals could still push the buffer
			// order statistic below anything observed: no proof possible.
			continue
		}
		if j >= c.received {
			j = c.received - 1
		}
		// Sort a scratch copy: the live sample must keep insertion order so
		// the final Mean sums in exactly the same order as an unmonitored
		// run.
		scratch := append(m.cs.scratch[:0], c.delays.Values()...)
		sort.Float64s(scratch)
		m.cs.scratch = scratch
		bufferLB := time.Duration(scratch[j] * float64(time.Second))
		bestR := voip.R0 -
			voip.DelayImpairment(voip.EndToEndDelay(m.codec, bufferLB, 0)) -
			voip.EffectiveEquipmentImpairment(m.codec, 0)
		if bestR < voip.TollQualityR {
			return true
		}
	}
	return false
}
