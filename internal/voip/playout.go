package voip

import (
	"errors"
	"math"
	"sort"
	"time"
)

// Playout models the receiver's jitter buffer: packets are played out at
// (send time + buffer depth); packets arriving later than their playout
// instant are late losses. Deeper buffers trade mouth-to-ear delay for
// fewer late losses — the receiver-side half of the VoIP delay budget.
type Playout struct {
	// Buffer is the playout delay applied to every packet.
	Buffer time.Duration
	// LateLoss is the fraction of packets missing their playout instant.
	LateLoss float64
}

// PlanPlayout picks the smallest buffer that keeps late loss at or below
// target, given the observed one-way network delays. target of 0 demands a
// buffer covering the maximum delay.
func PlanPlayout(delays []time.Duration, target float64) (Playout, error) {
	if len(delays) == 0 {
		return Playout{}, errors.New("voip: no delay samples")
	}
	sorted := make([]time.Duration, len(delays))
	copy(sorted, delays)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return PlanPlayoutSorted(sorted, target)
}

// PlanPlayoutSorted is PlanPlayout for delays already in ascending order: it
// neither copies nor re-sorts, so measurement pipelines that keep their
// samples sorted (core's pooled per-flow collectors) plan playout without
// allocating. The result is identical to PlanPlayout on the same multiset.
func PlanPlayoutSorted(sorted []time.Duration, target float64) (Playout, error) {
	if len(sorted) == 0 {
		return Playout{}, errors.New("voip: no delay samples")
	}
	if target < 0 || target >= 1 {
		return Playout{}, errors.New("voip: late-loss target outside [0,1)")
	}
	// Smallest buffer admitting at least (1-target) of the packets: the
	// ceil((1-target)*n)-th order statistic.
	keep := int(math.Ceil((1 - target) * float64(len(sorted))))
	if keep < 1 {
		keep = 1
	}
	buffer := sorted[keep-1]
	late := 0
	for _, d := range sorted[keep-1:] {
		if d > buffer {
			late++
		}
	}
	return Playout{
		Buffer:   buffer,
		LateLoss: float64(late) / float64(len(sorted)),
	}, nil
}

// EvaluateWithPlayout scores a call end to end: the network delays feed the
// playout plan, the mouth-to-ear delay is the playout buffer plus
// packetization and lookahead, and the loss is network loss plus late loss.
func EvaluateWithPlayout(c Codec, delays []time.Duration, networkLoss, lateTarget float64) (Quality, Playout, error) {
	po, err := PlanPlayout(delays, lateTarget)
	if err != nil {
		return Quality{}, Playout{}, err
	}
	return evaluatePlayout(c, po, networkLoss)
}

// EvaluateWithPlayoutSorted is EvaluateWithPlayout for delays already in
// ascending order (no copy, no sort, no allocation).
func EvaluateWithPlayoutSorted(c Codec, sorted []time.Duration, networkLoss, lateTarget float64) (Quality, Playout, error) {
	po, err := PlanPlayoutSorted(sorted, lateTarget)
	if err != nil {
		return Quality{}, Playout{}, err
	}
	return evaluatePlayout(c, po, networkLoss)
}

func evaluatePlayout(c Codec, po Playout, networkLoss float64) (Quality, Playout, error) {
	totalLoss := networkLoss + (1-networkLoss)*po.LateLoss
	if totalLoss > 1 {
		totalLoss = 1
	}
	q, err := Evaluate(c, EndToEndDelay(c, po.Buffer, 0), totalLoss)
	if err != nil {
		return Quality{}, Playout{}, err
	}
	return q, po, nil
}
