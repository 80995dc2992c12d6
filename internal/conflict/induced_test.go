package conflict

import (
	"math/rand"
	"slices"
	"testing"

	"wimesh/internal/topology"
)

// checkInduced verifies h = g.Induced(sub) against g through the map
// local i -> sub[i]: every conflict, each neighbour walk (ascending, early
// stop included), degree, edge count, Origin, and the greedy clique of
// weights carried over the map.
func checkInduced(t *testing.T, g, h *Graph, sub []topology.LinkID, rng *rand.Rand) {
	t.Helper()
	if h.NumVertices() != len(sub) {
		t.Fatalf("NumVertices = %d, want %d", h.NumVertices(), len(sub))
	}
	if h.Network() != nil {
		t.Errorf("induced graph has a network")
	}
	edges := 0
	for i := range sub {
		li := topology.LinkID(i)
		if got := h.Origin(li); got != g.Origin(sub[i]) {
			t.Fatalf("Origin(%d) = %d, want %d", i, got, g.Origin(sub[i]))
		}
		var want []topology.LinkID
		for j := range sub {
			lj := topology.LinkID(j)
			c := g.Conflicts(sub[i], sub[j])
			if h.Conflicts(li, lj) != c {
				t.Fatalf("Conflicts(%d, %d) = %v, parent (%d, %d) says %v", i, j, !c, sub[i], sub[j], c)
			}
			if c && i != j {
				want = append(want, lj)
			}
		}
		var got []topology.LinkID
		h.VisitNeighbors(li, func(nb topology.LinkID) bool { got = append(got, nb); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("VisitNeighbors(%d) = %v, want %v", i, got, want)
		}
		if h.Degree(li) != len(want) {
			t.Fatalf("Degree(%d) = %d, want %d", i, h.Degree(li), len(want))
		}
		if len(want) > 1 {
			stop := 1 + rng.Intn(len(want)-1)
			n := 0
			h.VisitNeighbors(li, func(topology.LinkID) bool { n++; return n < stop })
			if n != stop {
				t.Fatalf("VisitNeighbors(%d) went on for %d calls after fn returned false at %d", i, n, stop)
			}
		}
		edges += len(want)
	}
	if h.NumEdges() != edges/2 {
		t.Fatalf("NumEdges = %d, want %d", h.NumEdges(), edges/2)
	}
	for _, l := range []topology.LinkID{-1, topology.LinkID(len(sub))} {
		h.VisitNeighbors(l, func(topology.LinkID) bool { t.Fatalf("VisitNeighbors(%d) visited a link", l); return true })
		if h.Degree(l) != 0 || h.Conflicts(l, l-1) {
			t.Fatalf("out-of-range link %d has conflicts", l)
		}
	}
	local := make(map[topology.LinkID]float64)
	parent := make(map[topology.LinkID]float64)
	for i, l := range sub {
		w := float64(rng.Intn(4))
		local[topology.LinkID(i)], parent[l] = w, w
	}
	lc, lw := h.GreedyClique(local)
	pc, pw := g.GreedyClique(parent)
	mapped := make([]topology.LinkID, len(lc))
	for i, l := range lc {
		mapped[i] = sub[l]
	}
	if lw != pw || !slices.Equal(mapped, pc) {
		t.Fatalf("GreedyClique = %v (%g) mapped to %v, parent gives %v (%g)", lc, lw, mapped, pc, pw)
	}
}

// TestInducedAgreesWithParent is the property test of Graph.Induced: on
// random meshes under every model, the subgraph induced by the empty set, one
// link, every link and random ascending subsets — and a subgraph induced
// from an induced one — agrees with its parent through the map.
func TestInducedAgreesWithParent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		net := randomMesh(t, rng, 6+rng.Intn(20), 500, 200)
		opts := Options{Model: Model(1 + trial%3), InterferenceRange: 300}
		g, err := Build(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		all := make([]topology.LinkID, n)
		for i := range all {
			all[i] = topology.LinkID(i)
		}
		subsets := [][]topology.LinkID{nil, all}
		if n > 0 {
			subsets = append(subsets, []topology.LinkID{topology.LinkID(rng.Intn(n))})
		}
		for k := 0; k < 3; k++ {
			var sub []topology.LinkID
			for _, l := range all {
				if rng.Intn(3) > 0 {
					sub = append(sub, l)
				}
			}
			subsets = append(subsets, sub)
		}
		for _, sub := range subsets {
			h := g.Induced(sub)
			checkInduced(t, g, h, sub, rng)
			var inner []topology.LinkID
			for i := range sub {
				if rng.Intn(2) == 0 {
					inner = append(inner, topology.LinkID(i))
				}
			}
			checkInduced(t, h, h.Induced(inner), inner, rng)
		}
	}
}
