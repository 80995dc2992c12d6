package schedule

import (
	"fmt"
	"sort"

	"wimesh/internal/tdma"
)

// Greedy assigns slots by first-fit decreasing-demand interval coloring on
// the conflict graph: links are taken in order of decreasing demand (ties by
// ID) and placed at the earliest start where they overlap no conflicting,
// already-placed link. It is the delay-oblivious baseline of the
// evaluations: fast, near-minimal in schedule length, but with no control
// over end-to-end scheduling delay.
func Greedy(p *Problem, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.DataSlots != p.FrameSlots {
		return nil, fmt.Errorf("%w: frame config has %d slots, problem says %d",
			ErrBadDemand, cfg.DataSlots, p.FrameSlots)
	}
	links := p.ActiveLinks()
	sort.Slice(links, func(i, j int) bool {
		di, dj := p.Demand[links[i]], p.Demand[links[j]]
		if di != dj {
			return di > dj
		}
		return links[i] < links[j]
	})

	placed := tdma.NewPacking(p.Graph)
	s, err := tdma.NewSchedule(cfg)
	if err != nil {
		return nil, err
	}
	for _, l := range links {
		a := tdma.Assignment{Link: l, Length: p.Demand[l]}
		if a.Start = placed.FirstFit(l, a.Length, p.FrameSlots, nil); a.Start < 0 {
			return nil, fmt.Errorf("%w: greedy could not place link %d (demand %d) in %d slots",
				ErrInfeasible, l, a.Length, p.FrameSlots)
		}
		if cap, capped := p.StartCap[l]; capped && a.Start > cap {
			// First-fit already found the earliest conflict-free start, so a
			// start past the link's deadline cap cannot be repaired greedily.
			return nil, fmt.Errorf("%w: greedy start %d for link %d past its cap %d",
				ErrInfeasible, a.Start, l, cap)
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
