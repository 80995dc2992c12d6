package schedule

import (
	"fmt"
	"math"
	"math/rand"

	"wimesh/internal/topology"
)

// Order is a transmission order given as a link ranking: o[l] is link l's
// rank, and of two conflicting demanded links the one with the smaller
// (rank, link ID) transmits first within the frame. The integer program
// optimizes over such orders; the paper's Bellman-Ford step (OrderToSchedule)
// turns one into concrete slots. A ranking is acyclic by construction, so
// that step is one sweep in rank order. A nil Order is link-ID order; one
// shorter than the conflict graph is ErrBadDemand.
type Order []int32

// inGraph reports whether l is one of o's links. The builders skip a link
// outside the graph and leave it to Problem.Validate to report.
func (o Order) inGraph(l topology.LinkID) bool { return l >= 0 && int(l) < len(o) }

// NaiveOrder orders conflicting pairs by link ID: lower ID first. It is the
// "arbitrary order" baseline of the delay experiments.
func NaiveOrder(p *Problem) Order {
	return make(Order, p.Graph.NumVertices())
}

// RandomOrder ranks the demanded links by a random permutation drawn from
// rng (deterministic for a seeded rng).
func RandomOrder(p *Problem, rng *rand.Rand) Order {
	o := make(Order, p.Graph.NumVertices())
	active := p.activeLinks()
	perm := rng.Perm(len(active))
	for i, l := range active {
		if o.inGraph(l) {
			o[l] = int32(perm[i])
		}
	}
	return o
}

// PathMajorOrder ranks links by their latest position along the problem's
// flow paths, so each flow's hops transmit in path order within a frame
// (inbound before outbound); links on no path rank last. This is the greedy
// delay-aware heuristic for general topologies; on trees with gateway
// traffic it reduces to the polynomial overlay-tree ordering.
func PathMajorOrder(p *Problem) Order {
	o := make(Order, p.Graph.NumVertices())
	for i := range o {
		o[i] = math.MaxInt32
	}
	// A link's rank is its maximum position over all paths using it. For
	// gateway traffic, where paths are suffixes (uplink) or prefixes
	// (downlink) of each other, the maximum is consistent with *every*
	// path's hop order — the minimum is not (a shared final link appears at
	// position 0 of one-hop flows and would be forced to transmit first,
	// wrapping every longer flow into later frames).
	for _, f := range p.Flows {
		for pos, l := range f.Path {
			if o.inGraph(l) && (o[l] == math.MaxInt32 || int32(pos) > o[l]) {
				o[l] = int32(pos)
			}
		}
	}
	return o
}

// TreeOrder ranks links for gateway-rooted tree traffic. To let a packet
// traverse many hops within one frame, each node's inbound link must
// transmit before its outbound link. For upstream flows (toward the
// gateway) this means deeper links transmit earlier; for downstream flows,
// links closer to the gateway transmit earlier. This is the polynomial
// special case of the min-max delay order on overlay trees. rt supplies the
// link depths.
func TreeOrder(p *Problem, rt *topology.RoutingTree, net *topology.Network) (Order, error) {
	o := make(Order, p.Graph.NumVertices())
	maxDepth := 0
	for _, d := range rt.Depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	for _, l := range p.activeLinks() {
		if !o.inGraph(l) {
			continue
		}
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
			o[l] = int32(maxDepth - du)
		} else {
			// Downstream link: closer to gateway transmits earlier; rank
			// downstream links after all upstream ones so upstream packets
			// drain first.
			o[l] = int32(maxDepth + 1 + du)
		}
	}
	return o, nil
}
