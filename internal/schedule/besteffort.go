package schedule

import (
	"fmt"
	"slices"
	"sort"

	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// FillResidual implements the multi-service extension: after the
// guaranteed-QoS flows are scheduled, every remaining conflict-free
// (slot, link) opportunity is handed to best-effort traffic. BE links share
// the residue max-min fairly: each slot admits a maximal set of compatible
// BE links, always trying the links with the fewest BE slots first.
//
// It returns a new schedule containing both the original assignments and
// one-slot BE assignments, plus the per-link BE slot counts. The extended
// schedule is validated against the problem's conflict graph before being
// returned.
func FillResidual(p *Problem, s *tdma.Schedule, beLinks []topology.LinkID) (*tdma.Schedule, map[topology.LinkID]int, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if s == nil {
		return nil, nil, fmt.Errorf("%w: nil schedule", ErrBadDemand)
	}
	if len(beLinks) == 0 {
		return nil, nil, fmt.Errorf("%w: no best-effort links", ErrBadDemand)
	}
	links := slices.Clone(beLinks)
	slices.Sort(links)
	links = slices.Compact(links)

	out, err := tdma.NewSchedule(s.Config)
	if err != nil {
		return nil, nil, err
	}
	for _, a := range s.Assignments {
		if err := out.Add(a); err != nil {
			return nil, nil, err
		}
	}

	counts := make(map[topology.LinkID]int, len(links))
	owners := s.SlotOwners()
	for slot := 0; slot < s.Config.DataSlots; slot++ {
		// Links already transmitting in this slot (QoS owners plus BE
		// admissions made below).
		busy := append([]topology.LinkID(nil), owners[slot]...)
		// Fewest-BE-slots-first for max-min fairness; ties by ID.
		cands := append([]topology.LinkID(nil), links...)
		sort.Slice(cands, func(i, j int) bool {
			if counts[cands[i]] != counts[cands[j]] {
				return counts[cands[i]] < counts[cands[j]]
			}
			return cands[i] < cands[j]
		})
		for _, l := range cands {
			ok := true
			for _, b := range busy {
				if l == b || p.Graph.Conflicts(l, b) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if err := out.Add(tdma.Assignment{Link: l, Start: slot, Length: 1}); err != nil {
				return nil, nil, err
			}
			busy = append(busy, l)
			counts[l]++
		}
	}
	if err := out.Validate(p.Graph); err != nil {
		return nil, nil, fmt.Errorf("fill residual: %w", err)
	}
	return out, counts, nil
}

// ResidualCapacityBps sums the best-effort capacity of the counts returned
// by FillResidual, given the payload bytes one slot carries.
func ResidualCapacityBps(counts map[topology.LinkID]int, cfg tdma.FrameConfig, bytesPerSlot int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	bitsPerFrame := float64(8 * bytesPerSlot * total)
	return bitsPerFrame / cfg.FrameDuration.Seconds()
}
