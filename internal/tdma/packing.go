package tdma

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"wimesh/internal/conflict"
	"wimesh/internal/topology"
)

// Packing is a slot layout indexed for placement: iv[l] holds link l's
// [start,end) blocks sorted by start, over the conflict graph; queries OR
// the blocks that bind a link into one reused slot mask. It is the one
// interval index of the repo: the greedy colorer, the partitioned planner's
// stitch and the admission engine's live schedule all ask it where a block
// fits. It only reads the graph besides itself; not safe for concurrent use.
type Packing struct {
	g    *conflict.Graph
	iv   [][][2]int
	span int      // cached Makespan; -1 after a removal that may have lowered it
	mask []uint64 // blocked's slot mask, reused by every placement query
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

// blocked returns the mask of the slots below limit that link l may not use
// — bit s%64 of word s/64 is set when l, a conflict neighbor or a conflicting
// pending placement holds slot s — in storage reused from query to query.
func (p *Packing) blocked(l topology.LinkID, limit int, pending []Assignment) []uint64 {
	n := (max(limit, 0) + 63) >> 6
	m := slices.Grow(p.mask[:0], n)[:n]
	clear(m)
	p.mask = m
	mark := func(s, e int) {
		for s, e = max(s, 0), min(e, limit); s < e; {
			w, lo := s>>6, s&63
			hi := min(e-w<<6, 64)
			m[w] |= ^uint64(0) >> (64 - hi + lo) << lo
			s = w<<6 + hi
		}
	}
	fill := func(k topology.LinkID) bool {
		for _, iv := range p.iv[k] {
			if iv[0] >= limit {
				break
			}
			mark(iv[0], iv[1])
		}
		return true
	}
	fill(l)
	if nbs, ok := p.g.Neighbors(l); ok {
		for _, k := range nbs {
			fill(k)
		}
	} else {
		p.g.VisitNeighbors(l, fill)
	}
	for _, a := range pending {
		if a.Link == l || p.g.Conflicts(a.Link, l) {
			mark(a.Start, a.End())
		}
	}
	return m
}

// What seek looks for in a mask: the first busy or the first free slot.
const busy, free = uint64(0), ^uint64(0)

// seek returns the first busy or free slot from s on, else len(m)*64.
func seek(m []uint64, s int, want uint64) int {
	for w := s >> 6; w < len(m); w++ {
		if x := (m[w] ^ want) &^ (1<<(s&63) - 1); x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
		s = 0
	}
	return len(m) << 6
}

// FirstFit returns the earliest start for a length-d (d ≥ 1) block of link l
// ending at or before limit, or -1: a word-at-a-time scan of the blocked
// mask, O(conflict degree × blocks + limit/64), with no sort or allocation.
func (p *Packing) FirstFit(l topology.LinkID, d, limit int, pending []Assignment) int {
	m := p.blocked(l, limit, pending)
	s := seek(m, 0, free)
	for e := seek(m, s, busy); s+d <= limit; e = seek(m, s, busy) {
		if e-s >= d {
			return s
		}
		s = seek(m, e, free)
	}
	return -1
}

// FirstGap returns the earliest free gap for link l within limit as (start,
// length), or (-1, 0).
func (p *Packing) FirstGap(l topology.LinkID, limit int, pending []Assignment) (int, int) {
	m := p.blocked(l, limit, pending)
	s := seek(m, 0, free)
	if s >= limit {
		return -1, 0
	}
	return s, min(seek(m, s, busy), limit) - s
}

// Free reports whether the block overlaps nothing that constrains its link.
func (p *Packing) Free(a Assignment) bool {
	return seek(p.blocked(a.Link, a.End(), nil), max(a.Start, 0), busy) >= a.End()
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
