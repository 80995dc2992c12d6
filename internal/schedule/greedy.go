package schedule

import (
	"fmt"
	"slices"

	"wimesh/internal/tdma"
)

// Greedy first-fits the blocks of GreedyOrder(p) on the conflict graph, each
// at the earliest start where it overlaps no conflicting, already-placed
// block. It is the delay-oblivious baseline of the evaluations: fast,
// near-minimal in schedule length, but with no control over end-to-end delay.
func Greedy(p *Problem, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.DataSlots != p.FrameSlots {
		return nil, fmt.Errorf("%w: frame config has %d slots, problem says %d",
			ErrBadDemand, cfg.DataSlots, p.FrameSlots)
	}
	placed := tdma.NewPacking(p.Graph)
	s, err := tdma.NewSchedule(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range GreedyOrder(p) {
		if a.Start = placed.FirstFit(a.Link, a.Length, p.FrameSlots, nil); a.Start < 0 {
			return nil, fmt.Errorf("%w: greedy could not place link %d (demand %d) in %d slots",
				ErrInfeasible, p.Graph.Origin(a.Link), a.Length, p.FrameSlots)
		}
		if cap, capped := p.StartCap[a.Link]; capped && a.Start > cap {
			// First-fit already found the earliest conflict-free start, so a
			// start past the link's deadline cap cannot be repaired greedily.
			return nil, fmt.Errorf("%w: greedy start %d for link %d past its cap %d",
				ErrInfeasible, a.Start, p.Graph.Origin(a.Link), cap)
		}
		placed.Add(a)
		if err := s.Add(a); err != nil {
			return nil, err
		}
	}
	if err := p.checkSchedule(s); err != nil {
		return nil, err
	}
	return s, nil
}

// GreedyOrder is p's demand as one block per active link at slot 0, in
// Greedy's order: demand descending, then link ID (tdma.ByDemand).
func GreedyOrder(p *Problem) []tdma.Assignment {
	links := p.activeLinks()
	blocks := make([]tdma.Assignment, len(links))
	for i, l := range links {
		blocks[i] = tdma.Assignment{Link: l, Length: p.Demand[l]}
	}
	slices.SortFunc(blocks, tdma.ByDemand)
	return blocks
}

// GreedyLength returns the makespan (last used slot + 1) of a schedule.
func GreedyLength(s *tdma.Schedule) int {
	end := 0
	for _, a := range s.Assignments {
		if a.End() > end {
			end = a.End()
		}
	}
	return end
}
