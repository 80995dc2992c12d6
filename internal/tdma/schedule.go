package tdma

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/topology"
)

// Assignment reserves data slots [Start, Start+Length) of every frame for
// one link. Assignments do not wrap across the frame boundary.
type Assignment struct {
	Link   topology.LinkID
	Start  int
	Length int
}

// End returns the first slot after the assignment.
func (a Assignment) End() int { return a.Start + a.Length }

// Schedule is a periodic TDMA link schedule over one frame.
type Schedule struct {
	Config      FrameConfig
	Assignments []Assignment

	// byLink / winsByLink lazily cache the per-link query results. Add drops
	// them and the length check below catches external appends/truncations,
	// but an in-place rewrite of an Assignment is invisible to both — such
	// callers must call Invalidate. Planner delay evaluation queries the same
	// few links once per flow, so the grouping and sorting work is paid once
	// per schedule, not per call.
	byLink     map[topology.LinkID][]Assignment
	winsByLink map[topology.LinkID][][2]time.Duration
	cacheLen   int
}

// Invalidate drops the memoized per-link caches. Callers that mutate
// Assignments in place — changing a Start or Length without changing the
// slice length — must call it before the next query; Add and the length
// fingerprint only catch appends and truncations, not element rewrites.
func (s *Schedule) Invalidate() {
	s.byLink, s.winsByLink = nil, nil
	s.cacheLen = -1
}

// SetAssignments replaces the whole assignment list in one step and drops
// the per-link caches, after validating every entry against the frame
// bounds. The slice is adopted, not copied; the caller must not retain it.
func (s *Schedule) SetAssignments(as []Assignment) error {
	for _, a := range as {
		if a.Length <= 0 {
			return fmt.Errorf("%w: non-positive length %d for link %d", ErrBadAssignment, a.Length, a.Link)
		}
		if a.Start < 0 || a.End() > s.Config.DataSlots {
			return fmt.Errorf("%w: slots [%d,%d) outside frame of %d slots (link %d)",
				ErrBadAssignment, a.Start, a.End(), s.Config.DataSlots, a.Link)
		}
	}
	s.Assignments = as
	s.Invalidate()
	return nil
}

// NewSchedule returns an empty schedule with the given frame layout.
func NewSchedule(cfg FrameConfig) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Schedule{Config: cfg}, nil
}

// Add appends an assignment after validating it against the frame bounds.
// Multiple assignments per link are allowed (non-contiguous allocations).
func (s *Schedule) Add(a Assignment) error {
	if a.Length <= 0 {
		return fmt.Errorf("%w: non-positive length %d for link %d", ErrBadAssignment, a.Length, a.Link)
	}
	if a.Start < 0 || a.End() > s.Config.DataSlots {
		return fmt.Errorf("%w: slots [%d,%d) outside frame of %d slots (link %d)",
			ErrBadAssignment, a.Start, a.End(), s.Config.DataSlots, a.Link)
	}
	s.Assignments = append(s.Assignments, a)
	s.byLink, s.winsByLink = nil, nil
	return nil
}

// LinkSlots returns the total number of slots per frame assigned to link l.
func (s *Schedule) LinkSlots(l topology.LinkID) int {
	total := 0
	for _, a := range s.Assignments {
		if a.Link == l {
			total += a.Length
		}
	}
	return total
}

// LinkAssignments returns the assignments of link l sorted by start slot.
// The slice is shared with the schedule's internal cache; callers must not
// modify it.
func (s *Schedule) LinkAssignments(l topology.LinkID) []Assignment {
	if s.byLink == nil || s.cacheLen != len(s.Assignments) {
		byLink := make(map[topology.LinkID][]Assignment)
		for _, a := range s.Assignments {
			byLink[a.Link] = append(byLink[a.Link], a)
		}
		for _, as := range byLink {
			slices.SortFunc(as, func(x, y Assignment) int { return x.Start - y.Start })
		}
		s.byLink, s.winsByLink, s.cacheLen = byLink, nil, len(s.Assignments)
	}
	return s.byLink[l]
}

// SlotOwners returns, per data slot, the links transmitting in it (sorted).
func (s *Schedule) SlotOwners() [][]topology.LinkID {
	owners := make([][]topology.LinkID, s.Config.DataSlots)
	for _, a := range s.Assignments {
		for i := a.Start; i < a.End(); i++ {
			owners[i] = append(owners[i], a.Link)
		}
	}
	for i := range owners {
		slices.Sort(owners[i])
	}
	return owners
}

// Validate checks that no two conflicting links (including a link with
// itself via duplicate assignments) share a data slot, naming the lowest such
// slot: one sweep over the blocks in start order keeps those still running,
// and the first block to meet a conflicting one starts there. O(n log n).
func (s *Schedule) Validate(g *conflict.Graph) error {
	keys := make([]uint64, 0, len(s.Assignments)) // start, then index
	for i, a := range s.Assignments {
		if a.Length > 0 {
			keys = append(keys, uint64(a.Start)<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	var running []Assignment
	for _, k := range keys {
		b := s.Assignments[uint32(k)]
		live := running[:0]
		for _, a := range running {
			if a.End() > b.Start && g.Conflicts(a.Link, b.Link) {
				return fmt.Errorf("%w: links %d and %d overlap in slot %d",
					ErrConflict, g.Origin(min(a.Link, b.Link)), g.Origin(max(a.Link, b.Link)), b.Start)
			}
			if a.End() > b.Start {
				live = append(live, a)
			}
		}
		running = append(live, b)
	}
	return nil
}

// Shortfall returns a link the schedule gives fewer slots than its demand,
// with the slots it got, from one tally; short is false when all are met.
// The tally is a slice up to the largest link ID the blocks name, so on a
// zone-local problem it is zone-sized.
func (s *Schedule) Shortfall(demand map[topology.LinkID]int) (l topology.LinkID, got int, short bool) {
	n := 0
	for _, a := range s.Assignments {
		n = max(n, int(a.Link)+1)
	}
	tally := make([]int, n)
	for _, a := range s.Assignments {
		if a.Link >= 0 {
			tally[a.Link] += a.Length
		}
	}
	for l, d := range demand {
		got := 0
		if l >= 0 && int(l) < n {
			got = tally[l]
		}
		if got < d {
			return l, got, true
		}
	}
	return 0, 0, false
}

// TxWindows returns the absolute transmit windows of link l within frame 0:
// [offset, offset+len) pairs from the frame start. The slice is shared with
// the schedule's internal cache; callers must not modify it.
func (s *Schedule) TxWindows(l topology.LinkID) ([][2]time.Duration, error) {
	as := s.LinkAssignments(l) // validates/refreshes the cache generation
	if ws, ok := s.winsByLink[l]; ok {
		return ws, nil
	}
	var out [][2]time.Duration
	for _, a := range as {
		start, err := s.Config.SlotStart(a.Start)
		if err != nil {
			return nil, err
		}
		out = append(out, [2]time.Duration{start, start + time.Duration(a.Length)*s.Config.SlotDuration()})
	}
	if s.winsByLink == nil {
		s.winsByLink = make(map[topology.LinkID][][2]time.Duration)
	}
	s.winsByLink[l] = out
	return out, nil
}

// String renders the schedule as a per-slot map, for logs and examples.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frame %v, %d data slots of %v\n",
		s.Config.FrameDuration, s.Config.DataSlots, s.Config.SlotDuration())
	for slot, links := range s.SlotOwners() {
		if len(links) == 0 {
			continue
		}
		parts := make([]string, len(links))
		for i, l := range links {
			parts[i] = fmt.Sprintf("L%d", l)
		}
		fmt.Fprintf(&b, "  slot %3d: %s\n", slot, strings.Join(parts, " "))
	}
	return b.String()
}
