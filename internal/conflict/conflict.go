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
package conflict

import (
	"fmt"
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
	// excluding l itself.
	adj [][]topology.LinkID
	// edges is the number of conflicting pairs.
	edges int
}

// nodeBitset is a bitset over node IDs, one row of words per node.
type nodeBitset struct {
	words int
	bits  []uint64
}

func newNodeBitset(n int) *nodeBitset {
	words := (n + 63) / 64
	return &nodeBitset{words: words, bits: make([]uint64, n*words)}
}

func (s *nodeBitset) set(a, b topology.NodeID) {
	s.bits[int(a)*s.words+int(b)>>6] |= 1 << (uint(b) & 63)
}

func (s *nodeBitset) has(a, b topology.NodeID) bool {
	return s.bits[int(a)*s.words+int(b)>>6]&(1<<(uint(b)&63)) != 0
}

// Build constructs the conflict graph of net under the given options.
//
// The pairwise loop is O(L^2) with an O(1) inner test: the one-hop and
// within-range node relations are precomputed as node bitsets instead of
// probing the topology's link index per pair.
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

	// Precompute the node relation the secondary-interference test needs.
	var rel *nodeBitset
	switch opts.Model {
	case ModelTwoHop:
		// One-hop radio neighbourhood, symmetric over link direction.
		rel = newNodeBitset(net.NumNodes())
		for _, l := range links {
			rel.set(l.From, l.To)
			rel.set(l.To, l.From)
		}
	case ModelGeometric:
		// Nodes within the interference range of each other.
		rel = newNodeBitset(net.NumNodes())
		nodes := net.Nodes()
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				d, err := net.Distance(nodes[i].ID, nodes[j].ID)
				if err != nil {
					return nil, err
				}
				if d <= opts.InterferenceRange {
					rel.set(nodes[i].ID, nodes[j].ID)
					rel.set(nodes[j].ID, nodes[i].ID)
				}
			}
		}
	}

	for i := 0; i < n; i++ {
		a := links[i]
		for j := i + 1; j < n; j++ {
			b := links[j]
			// Primary: shared node.
			c := a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To
			if !c && opts.Model != ModelPrimary {
				// Secondary: a's transmitter interferes at b's receiver
				// (one-hop neighbour or within range), or vice versa.
				c = rel.has(a.From, b.To) || rel.has(b.From, a.To)
			}
			if c {
				g.setBit(i, j)
				g.setBit(j, i)
				g.adj[i] = append(g.adj[i], b.ID)
				g.adj[j] = append(g.adj[j], a.ID)
				g.edges++
			}
		}
	}
	// The double loop appends neighbours in ascending ID order on both
	// sides, so the adjacency lists are already sorted.
	return g, nil
}

func (g *Graph) setBit(a, b int) {
	g.bits[a*g.words+b>>6] |= 1 << (uint(b) & 63)
}

// row returns the adjacency bitset row of vertex a.
func (g *Graph) row(a int) []uint64 {
	return g.bits[a*g.words : (a+1)*g.words]
}

// Network returns the underlying mesh network.
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
// ID order, without allocating. Iteration stops early when fn returns false.
func (g *Graph) VisitNeighbors(l topology.LinkID, fn func(topology.LinkID) bool) {
	if l < 0 || int(l) >= g.n {
		return
	}
	for _, nb := range g.adj[l] {
		if !fn(nb) {
			return
		}
	}
}

// Degree returns the number of links conflicting with l.
func (g *Graph) Degree(l topology.LinkID) int {
	if l < 0 || int(l) >= g.n {
		return 0
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
