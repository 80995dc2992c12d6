package schedule

import (
	"fmt"
	"math/rand"
	"sort"

	"wimesh/internal/topology"
)

// denseOrderLimit caps the triangular array's entry count (one byte each):
// problems whose link-ID universe would need more fall back to the map
// representation.
const denseOrderLimit = 1 << 20

// Order is a relative transmission order over conflicting link pairs: for
// each conflicting pair exactly one of the two transmits first within the
// frame. The order is what the integer program optimizes; Bellman-Ford
// (OrderToSchedule) turns it into concrete slots.
//
// Pairs over a dense link-ID universe [0, n) are stored in a triangular
// byte array (one probe per Before query, no hashing); the map is the
// fallback for orders built without a known universe (NewOrder) and for
// link IDs outside the dense range.
type Order struct {
	// n is the dense universe size; IDs in [0, n) use tri.
	n int
	// tri[triIndex(a,b)] for a < b: 0 unset, +1 a before b, -1 b before a.
	tri []int8
	// triCount is the number of set entries in tri.
	triCount int
	// before[{a,b}] with a < b is true when a transmits before b; holds
	// pairs with an endpoint outside [0, n).
	before map[[2]topology.LinkID]bool
}

// NewOrder returns an empty map-backed order.
func NewOrder() *Order {
	return &Order{before: make(map[[2]topology.LinkID]bool)}
}

// NewOrderDense returns an empty order with a triangular-array backing for
// link IDs in [0, numLinks); IDs outside the range fall back to a map.
// Universes too large for the dense backing degrade to map-only.
func NewOrderDense(numLinks int) *Order {
	o := NewOrder()
	if numLinks > 1 && numLinks*(numLinks-1)/2 <= denseOrderLimit {
		o.n = numLinks
		o.tri = make([]int8, numLinks*(numLinks-1)/2)
	}
	return o
}

// newOrderFor returns an order sized for the problem's conflict graph: the
// triangular array up to 4 KiB, or while it costs at most a map entry's
// worth of bytes per conflicting pair of the problem, the map beyond that.
// A zone-local graph with a few demanded links among hundreds would
// otherwise pay for every pair of the zone on every order.
func newOrderFor(p *Problem) *Order {
	n := p.Graph.NumVertices()
	if tri := n * (n - 1) / 2; tri > 4096 && tri > 32*len(p.conflictingPairs()) {
		return NewOrder()
	}
	return NewOrderDense(n)
}

// triIndex maps a pair a < b (both within [0, n)) to its triangular slot.
func triIndex(a, b topology.LinkID) int {
	return int(b)*(int(b)-1)/2 + int(a)
}

// Set records that link first transmits before link second.
func (o *Order) Set(first, second topology.LinkID) {
	if first == second {
		return
	}
	a, b, v := first, second, int8(1)
	if a > b {
		a, b, v = b, a, -1
	}
	if a >= 0 && int(b) < o.n {
		k := triIndex(a, b)
		if o.tri[k] == 0 {
			o.triCount++
		}
		o.tri[k] = v
		return
	}
	o.before[[2]topology.LinkID{a, b}] = v > 0
}

// Before reports whether a transmits before b; ok is false when the pair is
// unordered.
func (o *Order) Before(a, b topology.LinkID) (before, ok bool) {
	if a == b {
		return false, false
	}
	lo, hi, flip := a, b, false
	if lo > hi {
		lo, hi, flip = hi, lo, true
	}
	if lo >= 0 && int(hi) < o.n {
		switch o.tri[triIndex(lo, hi)] {
		case 1:
			return !flip, true
		case -1:
			return flip, true
		default:
			return false, false
		}
	}
	v, ok := o.before[[2]topology.LinkID{lo, hi}]
	if !ok {
		return false, false
	}
	return v != flip, true
}

// Len returns the number of ordered pairs.
func (o *Order) Len() int { return o.triCount + len(o.before) }

// Complete reports whether every conflicting active pair of the problem is
// ordered.
func (o *Order) Complete(p *Problem) bool {
	for _, pair := range p.conflictingPairs() {
		if _, ok := o.Before(pair[0], pair[1]); !ok {
			return false
		}
	}
	return true
}

// PriorityOrder builds an order from a priority ranking of the links:
// for each conflicting pair, the link with the smaller rank transmits first.
// Ties break by link ID. Links missing from rank get the lowest priority.
func PriorityOrder(p *Problem, rank map[topology.LinkID]int) *Order {
	o := newOrderFor(p)
	for _, pair := range p.conflictingPairs() {
		a, b := pair[0], pair[1]
		ra, oka := rank[a]
		rb, okb := rank[b]
		if !oka {
			ra = int(^uint(0) >> 1) // max int
		}
		if !okb {
			rb = int(^uint(0) >> 1)
		}
		switch {
		case ra < rb:
			o.Set(a, b)
		case rb < ra:
			o.Set(b, a)
		case a < b:
			o.Set(a, b)
		default:
			o.Set(b, a)
		}
	}
	return o
}

// NaiveOrder orders conflicting pairs by link ID: lower ID first. It is the
// "arbitrary order" baseline of the delay experiments.
func NaiveOrder(p *Problem) *Order {
	return PriorityOrder(p, nil)
}

// RandomOrder orders every conflicting pair by a random priority drawn from
// rng (deterministic for a seeded rng).
func RandomOrder(p *Problem, rng *rand.Rand) *Order {
	rank := make(map[topology.LinkID]int)
	active := p.activeLinks()
	perm := rng.Perm(len(active))
	for i, l := range active {
		rank[l] = perm[i]
	}
	return PriorityOrder(p, rank)
}

// PathMajorOrder ranks links by their earliest position along the problem's
// flow paths, so each flow's hops transmit in path order within a frame
// (inbound before outbound). This is the greedy delay-aware heuristic for
// general topologies; on trees with gateway traffic it reduces to the
// polynomial overlay-tree ordering.
func PathMajorOrder(p *Problem) *Order {
	rank := make(map[topology.LinkID]int)
	// A link's rank is its maximum position over all paths using it. For
	// gateway traffic, where paths are suffixes (uplink) or prefixes
	// (downlink) of each other, the maximum is consistent with *every*
	// path's hop order — the minimum is not (a shared final link appears at
	// position 0 of one-hop flows and would be forced to transmit first,
	// wrapping every longer flow into later frames).
	for _, f := range p.Flows {
		for pos, l := range f.Path {
			if r, ok := rank[l]; !ok || pos > r {
				rank[l] = pos
			}
		}
	}
	return PriorityOrder(p, rank)
}

// TreeOrder ranks links for gateway-rooted tree traffic. To let a packet
// traverse many hops within one frame, each node's inbound link must
// transmit before its outbound link. For upstream flows (toward the
// gateway) this means deeper links transmit earlier; for downstream flows,
// links closer to the gateway transmit earlier. This is the polynomial
// special case of the min-max delay order on overlay trees. rt supplies the
// link depths.
func TreeOrder(p *Problem, rt *topology.RoutingTree, net *topology.Network) (*Order, error) {
	rank := make(map[topology.LinkID]int)
	maxDepth := 0
	for _, d := range rt.Depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	for _, l := range p.activeLinks() {
		lk, err := net.Link(l)
		if err != nil {
			return nil, fmt.Errorf("tree order: %w", err)
		}
		du, okU := rt.Depth[lk.From]
		dv, okV := rt.Depth[lk.To]
		if !okU || !okV {
			return nil, fmt.Errorf("tree order: link %d endpoints missing from routing tree", l)
		}
		if du > dv {
			// Upstream link (toward gateway): deeper transmits earlier.
			rank[l] = maxDepth - du
		} else {
			// Downstream link: closer to gateway transmits earlier; rank
			// downstream links after all upstream ones so upstream packets
			// drain first.
			rank[l] = maxDepth + 1 + du
		}
	}
	return PriorityOrder(p, rank), nil
}

// Pairs returns the ordered pairs (first, second) of the order, sorted for
// deterministic iteration.
func (o *Order) Pairs() [][2]topology.LinkID {
	out := make([][2]topology.LinkID, 0, o.Len())
	for b := 1; b < o.n; b++ {
		for a := 0; a < b; a++ {
			switch o.tri[triIndex(topology.LinkID(a), topology.LinkID(b))] {
			case 1:
				out = append(out, [2]topology.LinkID{topology.LinkID(a), topology.LinkID(b)})
			case -1:
				out = append(out, [2]topology.LinkID{topology.LinkID(b), topology.LinkID(a)})
			}
		}
	}
	for pair, aFirst := range o.before {
		if aFirst {
			out = append(out, pair)
		} else {
			out = append(out, [2]topology.LinkID{pair[1], pair[0]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
