// Package conflict builds wireless conflict graphs and solves the
// difference-constraint systems used to turn transmission orders into TDMA
// schedules.
//
// A conflict graph has one vertex per directed link of the mesh; two
// vertices are adjacent when the links cannot transmit in the same TDMA slot.
// The package implements the interference models used for 802.16 mesh
// scheduling:
//
//   - Primary conflicts: two links sharing a node conflict (a half-duplex
//     radio cannot transmit and receive simultaneously).
//   - Secondary (two-hop) conflicts: a link conflicts with any link whose
//     transmitter is a one-hop neighbour of its receiver (the protocol
//     interference model of the 802.16 mesh standard).
//   - Geometric (protocol-model) conflicts: a transmission interferes with
//     any receiver within interferenceRange meters.
//
// Adjacency is stored both as a dense bitset matrix over link IDs (O(1)
// Conflicts queries, word-parallel clique growth) and as sorted neighbour
// lists (cache-friendly iteration via VisitNeighbors). Link IDs are dense
// indices in [0, L) by construction (see topology.LinkID), so no separate
// index mapping is needed.
//
// Graph.Induced cuts out the subgraph over a subset of links, renumbered
// densely in the subset's order; Origin maps its IDs back. An induced graph
// keeps only the bitset rows and walks a row's set bits where a built graph
// walks its lists: at the few hundred links of an interference zone a row is
// a handful of words, while lists for every zone of a city would cost tens
// of times the bitsets.
package conflict

import (
	"fmt"
	"math/bits"
	"slices"

	"wimesh/internal/topology"
)

// Model selects how secondary interference is derived.
type Model int

// Interference models.
const (
	// ModelPrimary marks only node-sharing links as conflicting.
	ModelPrimary Model = iota + 1
	// ModelTwoHop is the 802.16 mesh model: primary conflicts plus links
	// whose transmitter neighbours the other link's receiver.
	ModelTwoHop
	// ModelGeometric is the protocol model: primary conflicts plus links
	// whose transmitter is within the interference range of the other
	// link's receiver.
	ModelGeometric
)

func (m Model) String() string {
	switch m {
	case ModelPrimary:
		return "primary"
	case ModelTwoHop:
		return "two-hop"
	case ModelGeometric:
		return "geometric"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Options configures conflict-graph construction.
type Options struct {
	Model Model
	// InterferenceRange (meters) applies to ModelGeometric only.
	InterferenceRange float64
}

// Graph is a conflict graph over the directed links of a mesh network.
type Graph struct {
	net *topology.Network
	// n is the number of links (vertices); IDs are dense in [0, n).
	n int
	// words is the number of 64-bit words per adjacency row.
	words int
	// bits is the row-major n x n adjacency matrix: link b conflicts with
	// link a iff bits[a*words + b/64] has bit b%64 set. The diagonal is
	// clear; Conflicts special-cases a == b.
	bits []uint64
	// adj[l] holds the links conflicting with l, sorted ascending,
	// excluding l itself. Nil on an induced graph, which walks bits instead.
	adj [][]topology.LinkID
	// edges is the number of conflicting pairs.
	edges int
	// origin[l] is link l's ID in the graph this one was induced from, nil
	// on a built graph.
	origin []topology.LinkID
}

// Build constructs the conflict graph of net under the given options.
//
// Interference is local, so each link's row is marked from the links at its
// endpoints and their neighbourhoods instead of testing every pair: b
// conflicts with a iff b touches a node of a (primary), b's receiver is
// related to a's transmitter, or b's transmitter to a's receiver (one hop
// apart, or within range). Each row is complete from its own link's side,
// and the sorted neighbour lists are read off the rows.
func Build(net *topology.Network, opts Options) (*Graph, error) {
	if opts.Model < ModelPrimary || opts.Model > ModelGeometric {
		return nil, fmt.Errorf("conflict: unknown model %d", int(opts.Model))
	}
	if opts.Model == ModelGeometric && opts.InterferenceRange <= 0 {
		return nil, fmt.Errorf("conflict: geometric model needs a positive interference range")
	}
	links := net.Links()
	n := len(links)
	g := &Graph{
		net:   net,
		n:     n,
		words: (n + 63) / 64,
		adj:   make([][]topology.LinkID, n),
	}
	g.bits = make([]uint64, n*g.words)

	out := make([][]topology.LinkID, net.NumNodes())
	in := make([][]topology.LinkID, net.NumNodes())
	for _, l := range links {
		out[l.From] = append(out[l.From], l.ID)
		in[l.To] = append(in[l.To], l.ID)
	}
	// rel[x] lists the nodes the secondary-interference test relates to x,
	// a symmetric relation.
	rel := make([][]topology.NodeID, net.NumNodes())
	switch opts.Model {
	case ModelTwoHop:
		// One-hop radio neighbourhood, symmetric over link direction.
		for _, l := range links {
			rel[l.From] = append(rel[l.From], l.To)
			rel[l.To] = append(rel[l.To], l.From)
		}
		for x := range rel {
			slices.Sort(rel[x])
			rel[x] = slices.Compact(rel[x])
		}
	case ModelGeometric:
		// Nodes within the interference range of each other.
		nodes := net.Nodes()
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				d, err := net.Distance(nodes[i].ID, nodes[j].ID)
				if err != nil {
					return nil, err
				}
				if d <= opts.InterferenceRange {
					rel[nodes[i].ID] = append(rel[nodes[i].ID], nodes[j].ID)
					rel[nodes[j].ID] = append(rel[nodes[j].ID], nodes[i].ID)
				}
			}
		}
	}

	for i, a := range links {
		row := g.row(i)
		mark := func(ls []topology.LinkID) {
			for _, b := range ls {
				row[b>>6] |= 1 << (uint(b) & 63)
			}
		}
		// Primary: shared node.
		mark(out[a.From])
		mark(in[a.From])
		mark(out[a.To])
		mark(in[a.To])
		// Secondary: a's transmitter interferes at b's receiver, or b's
		// transmitter at a's receiver.
		for _, x := range rel[a.From] {
			mark(in[x])
		}
		for _, x := range rel[a.To] {
			mark(out[x])
		}
		row[i>>6] &^= 1 << (uint(i) & 63)
		deg := 0
		for _, x := range row {
			deg += bits.OnesCount64(x)
		}
		g.adj[i] = make([]topology.LinkID, 0, deg)
		for w, x := range row {
			for ; x != 0; x &= x - 1 {
				g.adj[i] = append(g.adj[i], topology.LinkID(w<<6+bits.TrailingZeros64(x)))
			}
		}
		g.edges += deg
	}
	g.edges /= 2
	return g, nil
}

func (g *Graph) setBit(a, b int) {
	g.bits[a*g.words+b>>6] |= 1 << (uint(b) & 63)
}

// row returns the adjacency bitset row of vertex a.
func (g *Graph) row(a int) []uint64 {
	return g.bits[a*g.words : (a+1)*g.words]
}

// Induced returns the subgraph induced by the given distinct links of g,
// with link i of the result standing for links[i]: a and b conflict in it
// iff links[a] and links[b] conflict in g. Listing the links ascending keeps
// every tie-break by link ID in order. The result keeps only bitset rows —
// VisitNeighbors and Degree scan a row's set bits — and has no network,
// since its IDs are not the network's. It retains links (through Origin);
// callers must not modify the slice afterwards.
func (g *Graph) Induced(links []topology.LinkID) *Graph {
	k := len(links)
	h := &Graph{n: k, words: (k + 63) / 64, origin: links}
	h.bits = make([]uint64, k*h.words)
	for i, a := range links {
		if a < 0 || int(a) >= g.n {
			continue
		}
		row := g.row(int(a))
		for j := i + 1; j < k; j++ {
			if b := links[j]; b >= 0 && int(b) < g.n && row[int(b)>>6]&(1<<(uint(b)&63)) != 0 {
				h.setBit(i, j)
				h.setBit(j, i)
				h.edges++
			}
		}
	}
	if g.origin != nil {
		h.origin = make([]topology.LinkID, k)
		for i, l := range links {
			h.origin[i] = g.Origin(l)
		}
	}
	return h
}

// Origin returns link l's ID in the graph g was induced from — l itself on
// a graph Build made. Error messages name links through it, so a failure on
// an induced graph names the link its caller knows.
func (g *Graph) Origin(l topology.LinkID) topology.LinkID {
	if g.origin == nil || l < 0 || int(l) >= g.n {
		return l
	}
	return g.origin[l]
}

// Network returns the underlying mesh network, nil on an induced graph.
func (g *Graph) Network() *topology.Network { return g.net }

// Conflicts reports whether links a and b may not share a slot.
func (g *Graph) Conflicts(a, b topology.LinkID) bool {
	if a == b {
		return true
	}
	if a < 0 || int(a) >= g.n || b < 0 || int(b) >= g.n {
		return false
	}
	return g.bits[int(a)*g.words+int(b)>>6]&(1<<(uint(b)&63)) != 0
}

// VisitNeighbors calls fn for every link conflicting with l, in ascending
// ID order, without allocating: along l's list, or on an induced graph
// along the set bits of its row. Iteration stops early when fn returns
// false. Hot walks over a built graph range over Neighbors instead: a walk
// that handles both kinds of graph is too large to inline, and a callback
// that is not inlined costs up to 2.6 times the walk.
func (g *Graph) VisitNeighbors(l topology.LinkID, fn func(topology.LinkID) bool) {
	if uint(l) >= uint(g.n) {
		return
	}
	if g.adj != nil {
		for _, nb := range g.adj[l] {
			if !fn(nb) {
				return
			}
		}
		return
	}
	for w, x := range g.row(int(l)) {
		for ; x != 0; x &= x - 1 {
			if !fn(topology.LinkID(w<<6 + bits.TrailingZeros64(x))) {
				return
			}
		}
	}
}

// Neighbors returns the links conflicting with l, ascending, when g keeps
// neighbour lists (a graph Build made); ok is false on an induced graph,
// whose neighbours VisitNeighbors walks. The slice is the graph's own;
// callers must not modify it.
func (g *Graph) Neighbors(l topology.LinkID) (nbs []topology.LinkID, ok bool) {
	if g.adj == nil {
		return nil, false
	}
	if uint(l) >= uint(g.n) {
		return nil, true
	}
	return g.adj[l], true
}

// Degree returns the number of links conflicting with l.
func (g *Graph) Degree(l topology.LinkID) int {
	if l < 0 || int(l) >= g.n {
		return 0
	}
	if g.adj == nil {
		d := 0
		for _, x := range g.row(int(l)) {
			d += bits.OnesCount64(x)
		}
		return d
	}
	return len(g.adj[l])
}

// NumVertices returns the number of links in the conflict graph.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of conflicting pairs.
func (g *Graph) NumEdges() int { return g.edges }

// GreedyClique grows a clique around each vertex of a restricted vertex set
// by repeatedly adding the compatible vertex with the largest weight, and
// returns the heaviest clique found. Weights must be non-negative. It is a
// heuristic lower-bound generator for frame-length search: the links of a
// clique must occupy disjoint slots, so the total clique weight (demand in
// slots) lower-bounds the frame length.
//
// Candidates are sorted once (heaviest first, ties by ID) and shared across
// all seeds; clique membership is tracked as the running AND of the
// members' adjacency rows, so each compatibility test is one bit probe.
func (g *Graph) GreedyClique(weight map[topology.LinkID]float64) ([]topology.LinkID, float64) {
	var verts []topology.LinkID
	for l := range weight {
		if weight[l] > 0 {
			verts = append(verts, l)
		}
	}
	slices.Sort(verts)

	// Candidates, heaviest first; ties by ID for determinism. The same
	// ordering serves every seed (dropping the seed does not change the
	// relative order of the rest).
	cands := append([]topology.LinkID(nil), verts...)
	slices.SortFunc(cands, func(a, b topology.LinkID) int {
		wa, wb := weight[a], weight[b]
		if wa != wb {
			if wa > wb {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})

	var (
		best       []topology.LinkID
		bestWeight float64
		compat     = make([]uint64, g.words)
	)
	for _, seed := range verts {
		clique := []topology.LinkID{seed}
		total := weight[seed]
		if seed >= 0 && int(seed) < g.n {
			// compat holds the vertices adjacent to every clique member.
			copy(compat, g.row(int(seed)))
			for _, c := range cands {
				if c == seed || c < 0 || int(c) >= g.n {
					continue
				}
				if compat[int(c)>>6]&(1<<(uint(c)&63)) != 0 {
					clique = append(clique, c)
					total += weight[c]
					row := g.row(int(c))
					for w := range compat {
						compat[w] &= row[w]
					}
				}
			}
		}
		if total > bestWeight {
			best, bestWeight = clique, total
		}
	}
	slices.Sort(best)
	return best, bestWeight
}
