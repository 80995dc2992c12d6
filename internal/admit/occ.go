package admit

import (
	"slices"

	"wimesh/internal/conflict"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// occupancy is a per-link interval index over a schedule: iv[l] holds link
// l's [start,end) blocks sorted by start. The engine keeps one mirroring the
// live schedule (guarded by e.mu); defragmentation stitches its candidate
// against a private one. Besides itself it reads only the immutable conflict
// graph.
type occupancy struct {
	g       *conflict.Graph
	iv      [][][2]int
	scratch [][2]int
}

func newOccupancy(g *conflict.Graph) occupancy {
	return occupancy{g: g, iv: make([][][2]int, g.NumVertices())}
}

// add inserts [s,end) into link l's intervals, keeping start order.
func (o *occupancy) add(l topology.LinkID, s, end int) {
	ivs := o.iv[l]
	i, _ := slices.BinarySearchFunc(ivs, s, func(iv [2]int, s int) int { return iv[0] - s })
	o.iv[l] = slices.Insert(ivs, i, [2]int{s, end})
}

// clear empties every link's intervals, keeping their storage.
func (o *occupancy) clear() {
	for i := range o.iv {
		o.iv[i] = o.iv[i][:0]
	}
}

// rebuild regenerates the index from a schedule's assignments.
func (o *occupancy) rebuild(as []tdma.Assignment) {
	o.clear()
	for _, a := range as {
		o.add(a.Link, a.Start, a.End())
	}
}

// end returns the latest slot any of the links occupies.
func (o *occupancy) end(links []topology.LinkID) int {
	end := 0
	for _, l := range links {
		for _, iv := range o.iv[l] {
			end = max(end, iv[1])
		}
	}
	return end
}

// covered returns how many of link l's scheduled slots lie before the
// deadline slot index (exclusive). Partial blocks count their leading
// slots: per-link slots are fungible, so any d slots before the deadline
// cover a d-slot guaranteed prefix.
func (o *occupancy) covered(l topology.LinkID, deadline int) int {
	n := 0
	for _, iv := range o.iv[l] {
		if iv[0] >= deadline {
			break
		}
		n += min(iv[1], deadline) - iv[0]
	}
	return n
}

// blockers collects the intervals that constrain link l — its own and its
// conflict neighbors', plus pending placements — sorted by start.
func (o *occupancy) blockers(l topology.LinkID, pending []tdma.Assignment) [][2]int {
	bs := o.scratch[:0]
	bs = append(bs, o.iv[l]...)
	o.g.VisitNeighbors(l, func(nb topology.LinkID) bool {
		bs = append(bs, o.iv[nb]...)
		return true
	})
	for _, p := range pending {
		if p.Link == l || o.g.Conflicts(p.Link, l) {
			bs = append(bs, [2]int{p.Start, p.End()})
		}
	}
	slices.SortFunc(bs, func(a, b [2]int) int { return a[0] - b[0] })
	o.scratch = bs
	return bs
}

// firstFit returns the earliest start for a length-d block of link l ending
// at or before limit, or -1. O(conflict degree × blocks).
func (o *occupancy) firstFit(l topology.LinkID, d, limit int, pending []tdma.Assignment) int {
	cur := 0
	for _, b := range o.blockers(l, pending) {
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

// firstGap returns the earliest free gap for link l within limit as (start,
// length), or (-1, 0).
func (o *occupancy) firstGap(l topology.LinkID, limit int, pending []tdma.Assignment) (int, int) {
	cur := 0
	for _, b := range o.blockers(l, pending) {
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

// byStart orders blocks for first-fit re-insertion: ascending start, longer
// first, then link. Re-inserting in this order can only move a block
// earlier (see Engine.compact), and it makes a solver's layout the
// placement hint of a stitch.
func byStart(a, b tdma.Assignment) int {
	if a.Start != b.Start {
		return a.Start - b.Start
	}
	if a.Length != b.Length {
		return b.Length - a.Length
	}
	return int(a.Link - b.Link)
}

func makespanOf(s *tdma.Schedule) int {
	end := 0
	for _, a := range s.Assignments {
		if a.End() > end {
			end = a.End()
		}
	}
	return end
}
