package tdma

import (
	"fmt"
	"math"
	"slices"

	"wimesh/internal/conflict"
	"wimesh/internal/topology"
)

// Packing is a slot layout indexed for placement: iv[l] holds link l's
// [start,end) blocks sorted by start, over the conflict graph that says
// which links may not overlap. It is the one interval index of the repo:
// the greedy colorer, the partitioned planner's stitch and the admission
// engine's live schedule all ask it where a block fits. Besides itself it
// reads only the immutable graph; it is not safe for concurrent use.
type Packing struct {
	g       *conflict.Graph
	iv      [][][2]int
	span    int // cached Makespan; -1 after a removal that may have lowered it
	scratch [][2]int
}

// NewPacking returns an empty packing over g's links.
func NewPacking(g *conflict.Graph) *Packing {
	return &Packing{g: g, iv: make([][][2]int, g.NumVertices())}
}

// Add inserts the block, keeping its link's start order, unchecked: callers
// add what FirstFit, a solver or a snapshot gave them.
func (p *Packing) Add(a Assignment) {
	ivs := p.iv[a.Link]
	i, _ := slices.BinarySearchFunc(ivs, a.Start, func(iv [2]int, s int) int { return iv[0] - s })
	p.iv[a.Link] = slices.Insert(ivs, i, [2]int{a.Start, a.End()})
	if p.span >= 0 {
		p.span = max(p.span, a.End())
	}
}

// Reset replaces the whole layout with the blocks, keeping the storage.
func (p *Packing) Reset(blocks []Assignment) {
	for i := range p.iv {
		p.iv[i] = p.iv[i][:0]
	}
	p.span = 0
	for _, a := range blocks {
		p.Add(a)
	}
}

// Cut removes and returns the links' blocks (a trial stitch puts them back).
func (p *Packing) Cut(links []topology.LinkID) []Assignment {
	var out []Assignment
	for _, l := range links {
		for _, iv := range p.iv[l] {
			out = append(out, Assignment{Link: l, Start: iv[0], Length: iv[1] - iv[0]})
			if iv[1] == p.span {
				p.span = -1
			}
		}
		p.iv[l] = p.iv[l][:0]
	}
	return out
}

// Trim removes n slots from link l, shrinking — and, once empty, dropping —
// its blocks from the highest start downward: an admission release returns
// the most recently packed capacity first. It fails without modifying the
// packing if the link holds fewer than n slots.
func (p *Packing) Trim(l topology.LinkID, n int) error {
	if got := p.Covered(l, math.MaxInt); n <= 0 || got < n {
		return fmt.Errorf("%w: cannot trim %d of link %d's %d slots", ErrBadAssignment, n, l, got)
	}
	ivs := p.iv[l]
	for n > 0 {
		last := &ivs[len(ivs)-1]
		if last[1] == p.span {
			p.span = -1
		}
		if k := last[1] - last[0]; k > n {
			last[1] -= n
			n = 0
		} else {
			n -= k
			ivs = ivs[:len(ivs)-1]
		}
	}
	p.iv[l] = ivs
	return nil
}

// Assignments returns the layout as a flat list, by link then start.
func (p *Packing) Assignments() []Assignment {
	var out []Assignment
	for l, ivs := range p.iv {
		for _, iv := range ivs {
			out = append(out, Assignment{Link: topology.LinkID(l), Start: iv[0], Length: iv[1] - iv[0]})
		}
	}
	return out
}

// End returns the latest slot any of the links occupies.
func (p *Packing) End(links []topology.LinkID) int {
	end := 0
	for _, l := range links {
		for _, iv := range p.iv[l] {
			end = max(end, iv[1])
		}
	}
	return end
}

// Makespan returns the latest slot any link occupies.
func (p *Packing) Makespan() int {
	if p.span < 0 {
		p.span = 0
		for _, ivs := range p.iv {
			for _, iv := range ivs {
				p.span = max(p.span, iv[1])
			}
		}
	}
	return p.span
}

// Covered returns how many of link l's slots lie before the deadline slot
// index (exclusive). Partial blocks count their leading slots: per-link
// slots are fungible, so any d slots before the deadline cover a d-slot
// guaranteed prefix.
func (p *Packing) Covered(l topology.LinkID, deadline int) int {
	n := 0
	for _, iv := range p.iv[l] {
		if iv[0] >= deadline {
			break
		}
		n += min(iv[1], deadline) - iv[0]
	}
	return n
}

// blockers collects the intervals that constrain link l — its own and its
// conflict neighbors', plus pending placements — sorted by start.
func (p *Packing) blockers(l topology.LinkID, pending []Assignment) [][2]int {
	bs := p.scratch[:0]
	bs = append(bs, p.iv[l]...)
	p.g.VisitNeighbors(l, func(nb topology.LinkID) bool {
		bs = append(bs, p.iv[nb]...)
		return true
	})
	for _, a := range pending {
		if a.Link == l || p.g.Conflicts(a.Link, l) {
			bs = append(bs, [2]int{a.Start, a.End()})
		}
	}
	slices.SortFunc(bs, func(a, b [2]int) int { return a[0] - b[0] })
	p.scratch = bs
	return bs
}

// FirstFit returns the earliest start for a length-d block of link l ending
// at or before limit, or -1. O(conflict degree × blocks).
func (p *Packing) FirstFit(l topology.LinkID, d, limit int, pending []Assignment) int {
	cur := 0
	for _, b := range p.blockers(l, pending) {
		if b[0]-cur >= d {
			break
		}
		cur = max(cur, b[1])
		if cur+d > limit {
			return -1
		}
	}
	if cur+d > limit {
		return -1
	}
	return cur
}

// FirstGap returns the earliest free gap for link l within limit as (start,
// length), or (-1, 0).
func (p *Packing) FirstGap(l topology.LinkID, limit int, pending []Assignment) (int, int) {
	cur := 0
	for _, b := range p.blockers(l, pending) {
		if b[0] > cur {
			return cur, min(b[0], limit) - cur
		}
		cur = max(cur, b[1])
		if cur >= limit {
			return -1, 0
		}
	}
	if cur >= limit {
		return -1, 0
	}
	return cur, limit - cur
}

// Free reports whether the block overlaps nothing that constrains its link.
func (p *Packing) Free(a Assignment) bool {
	for _, b := range p.blockers(a.Link, nil) {
		if b[0] < a.End() && a.Start < b[1] {
			return false
		}
	}
	return true
}

// ByDemand is the first-fit-decreasing order: longer block first, then link.
// It is the greedy colorer's order and breaks ByStart's ties.
func ByDemand(a, b Assignment) int {
	if a.Length != b.Length {
		return b.Length - a.Length
	}
	return int(a.Link - b.Link)
}

// ByStart orders blocks for first-fit re-insertion: ascending start, then
// ByDemand.
func ByStart(a, b Assignment) int {
	if a.Start != b.Start {
		return a.Start - b.Start
	}
	return ByDemand(a, b)
}

// Repack first-fits the blocks in slice order, each ending at or before
// limit(link, length), adds them and rewrites their Start. It returns the
// index of the first block that does not fit, len(blocks) when all do.
//
// Repacking a conflict-free layout in ByStart order into an empty packing
// never moves a block later: every earlier-starting conflicting block ended
// at or before this block's old start and was re-placed no later than it
// was, so the old position is still free. Such a re-pack never grows the
// makespan, and it makes a solver's layout the placement hint of a stitch.
func (p *Packing) Repack(blocks []Assignment, limit func(l topology.LinkID, n int) int) int {
	for i := range blocks {
		b := &blocks[i]
		s := p.FirstFit(b.Link, b.Length, limit(b.Link, b.Length), nil)
		if s < 0 {
			return i
		}
		b.Start = s
		p.Add(*b)
	}
	return len(blocks)
}
