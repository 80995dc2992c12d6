package conflict

import (
	"testing"
	"testing/quick"

	"wimesh/internal/topology"
)

func mustChain(t *testing.T, n int) *topology.Network {
	t.Helper()
	net, err := topology.Chain(n, 100)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	return net
}

func mustBuild(t *testing.T, net *topology.Network, m Model) *Graph {
	t.Helper()
	g, err := Build(net, Options{Model: m, InterferenceRange: 250})
	if err != nil {
		t.Fatalf("Build(%v): %v", m, err)
	}
	return g
}

func link(t *testing.T, net *topology.Network, a, b topology.NodeID) topology.LinkID {
	t.Helper()
	l, err := net.FindLink(a, b)
	if err != nil {
		t.Fatalf("FindLink(%d,%d): %v", a, b, err)
	}
	return l
}

func TestBuildRejectsBadOptions(t *testing.T) {
	net := mustChain(t, 3)
	if _, err := Build(net, Options{}); err == nil {
		t.Error("Build accepted zero Model")
	}
	if _, err := Build(net, Options{Model: ModelGeometric}); err == nil {
		t.Error("Build accepted geometric model without range")
	}
}

func TestPrimaryConflictsOnChain(t *testing.T) {
	net := mustChain(t, 4) // nodes 0-1-2-3
	g := mustBuild(t, net, ModelPrimary)

	l01 := link(t, net, 0, 1)
	l12 := link(t, net, 1, 2)
	l23 := link(t, net, 2, 3)
	l10 := link(t, net, 1, 0)

	if !g.Conflicts(l01, l12) {
		t.Error("0->1 and 1->2 share node 1, must conflict")
	}
	if !g.Conflicts(l01, l10) {
		t.Error("0->1 and 1->0 share both nodes, must conflict")
	}
	if g.Conflicts(l01, l23) {
		t.Error("0->1 and 2->3 share nothing, must not conflict under primary model")
	}
}

func TestTwoHopConflictsOnChain(t *testing.T) {
	net := mustChain(t, 5) // 0-1-2-3-4
	g := mustBuild(t, net, ModelTwoHop)

	l01 := link(t, net, 0, 1)
	l23 := link(t, net, 2, 3)
	l34 := link(t, net, 3, 4)
	l32 := link(t, net, 3, 2)

	// Transmitter 2 of 2->3 neighbours receiver 1 of 0->1: conflict.
	if !g.Conflicts(l01, l23) {
		t.Error("0->1 and 2->3 must conflict under two-hop model")
	}
	// 3->4: transmitter 3 does not neighbour 1; transmitter 0 does not
	// neighbour 4. No conflict.
	if g.Conflicts(l01, l34) {
		t.Error("0->1 and 3->4 must not conflict under two-hop model")
	}
	// 3->2: transmitter 3 doesn't neighbour 1, but transmitter 0 doesn't
	// neighbour 2 either... 0 neighbours 1 only. However receiver of 3->2
	// is 2, transmitter of 0->1 is 0: not neighbours. No conflict? The
	// receiver 1 of 0->1 neighbours transmitter... 3 is not a neighbour of
	// 1. So no conflict.
	if g.Conflicts(l01, l32) {
		t.Error("0->1 and 3->2 must not conflict under two-hop model")
	}
}

func TestGeometricConflicts(t *testing.T) {
	// Straight line, 100 m spacing, interference range 250 m: a
	// transmitter interferes with receivers up to 2 nodes away.
	net := mustChain(t, 6)
	g, err := Build(net, Options{Model: ModelGeometric, InterferenceRange: 250})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	l01 := link(t, net, 0, 1)
	l23 := link(t, net, 2, 3)
	l45 := link(t, net, 4, 5)

	// Transmitter 2 is 100 m from receiver 1: conflict.
	if !g.Conflicts(l01, l23) {
		t.Error("0->1 vs 2->3: want conflict (tx 2 is 100 m from rx 1)")
	}
	// Transmitter 4 is 300 m from receiver 1, transmitter 0 is 500 m from
	// receiver 5: no conflict.
	if g.Conflicts(l01, l45) {
		t.Error("0->1 vs 4->5: want no conflict at range 250")
	}
}

func TestConflictSymmetryAndSelf(t *testing.T) {
	net := mustChain(t, 5)
	g := mustBuild(t, net, ModelTwoHop)
	links := net.Links()
	for _, a := range links {
		if !g.Conflicts(a.ID, a.ID) {
			t.Fatalf("link %d does not conflict with itself", a.ID)
		}
		for _, b := range links {
			if g.Conflicts(a.ID, b.ID) != g.Conflicts(b.ID, a.ID) {
				t.Fatalf("asymmetric conflict between %d and %d", a.ID, b.ID)
			}
		}
	}
}

func TestNumEdgesMatchesDegreeSum(t *testing.T) {
	net := mustChain(t, 6)
	g := mustBuild(t, net, ModelTwoHop)
	sum := 0
	for _, l := range net.Links() {
		sum += g.Degree(l.ID)
	}
	if sum != 2*g.NumEdges() {
		t.Errorf("degree sum %d != 2 * edges %d", sum, g.NumEdges())
	}
}

func TestGreedyCliqueOnChain(t *testing.T) {
	net := mustChain(t, 4)
	g := mustBuild(t, net, ModelTwoHop)
	// Unit weights on the three forward links. On a 4-node chain under the
	// two-hop model all three forward links mutually conflict.
	w := map[topology.LinkID]float64{
		link(t, net, 0, 1): 1,
		link(t, net, 1, 2): 1,
		link(t, net, 2, 3): 1,
	}
	clique, weight := g.GreedyClique(w)
	if len(clique) != 3 || weight != 3 {
		t.Errorf("clique = %v (weight %g), want all 3 forward links", clique, weight)
	}
}

func TestGreedyCliqueIsAClique(t *testing.T) {
	prop := func(seed int64) bool {
		net, err := topology.RandomDisk(8, 800, 350, seed%500)
		if err != nil {
			return true
		}
		g, err := Build(net, Options{Model: ModelTwoHop})
		if err != nil {
			return false
		}
		w := make(map[topology.LinkID]float64)
		for _, l := range net.Links() {
			w[l.ID] = float64(int(l.ID)%3 + 1)
		}
		clique, _ := g.GreedyClique(w)
		for i := 0; i < len(clique); i++ {
			for j := i + 1; j < len(clique); j++ {
				if !g.Conflicts(clique[i], clique[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGreedyCliqueEmptyWeights(t *testing.T) {
	net := mustChain(t, 3)
	g := mustBuild(t, net, ModelPrimary)
	clique, weight := g.GreedyClique(nil)
	if len(clique) != 0 || weight != 0 {
		t.Errorf("empty weights: clique=%v weight=%g, want empty", clique, weight)
	}
}

// twoIslands builds a network of two far-apart 3-node chains plus one
// isolated unidirectional link, all in a single Network — the disconnected
// shape per-zone subgraphs take under spatial partitioning.
func twoIslands(t *testing.T) *topology.Network {
	t.Helper()
	net := topology.NewNetwork()
	// Island A: nodes 0-1-2 around the origin.
	for i := 0; i < 3; i++ {
		net.AddNode(float64(i)*100, 0)
	}
	// Island B: nodes 3-4-5, 50 km away.
	for i := 0; i < 3; i++ {
		net.AddNode(50_000+float64(i)*100, 0)
	}
	// Island C: nodes 6,7 with a single one-way link, 100 km away.
	net.AddNode(100_000, 0)
	net.AddNode(100_100, 0)
	for _, pair := range [][2]topology.NodeID{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		if _, _, err := net.AddBidirectional(pair[0], pair[1], topology.DefaultRateBps); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink(6, 7, topology.DefaultRateBps); err != nil {
		t.Fatal(err)
	}
	return net
}

// islandOf maps each link of twoIslands to its component: transmitters 0-2
// are island A, 3-5 island B, 6-7 island C.
func islandOf(t *testing.T, net *topology.Network, l topology.LinkID) int {
	t.Helper()
	lk, err := net.Link(l)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case lk.From <= 2:
		return 0
	case lk.From <= 5:
		return 1
	default:
		return 2
	}
}

// TestBuildDisconnectedComponents: conflicts must never cross connectivity
// components, and a link with no interferer at all must have an empty
// adjacency row under every model.
func TestBuildDisconnectedComponents(t *testing.T) {
	net := twoIslands(t)
	iso, err := net.FindLink(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{ModelPrimary, ModelTwoHop, ModelGeometric} {
		g := mustBuild(t, net, m)
		if g.NumVertices() != net.NumLinks() {
			t.Fatalf("%v: NumVertices = %d, want %d", m, g.NumVertices(), net.NumLinks())
		}
		for a := topology.LinkID(0); int(a) < g.NumVertices(); a++ {
			for b := topology.LinkID(0); int(b) < g.NumVertices(); b++ {
				if a != b && g.Conflicts(a, b) && islandOf(t, net, a) != islandOf(t, net, b) {
					t.Errorf("%v: cross-island conflict %d vs %d", m, a, b)
				}
			}
		}
		// The isolated one-way link interferes with nothing: empty row.
		if d := g.Degree(iso); d != 0 {
			t.Errorf("%v: isolated link degree = %d, want 0", m, d)
		}
		visited := 0
		g.VisitNeighbors(iso, func(topology.LinkID) bool { visited++; return true })
		if visited != 0 {
			t.Errorf("%v: VisitNeighbors on empty row visited %d links", m, visited)
		}
		// Within an island the chain links do conflict, so the graph is
		// multi-component rather than edgeless.
		a01 := link(t, net, 0, 1)
		a12 := link(t, net, 1, 2)
		if !g.Conflicts(a01, a12) {
			t.Errorf("%v: in-island links %d,%d should conflict", m, a01, a12)
		}
	}
}

// TestGreedyCliqueDisconnected: the clique heuristic must stay inside one
// component (a clique cannot span components), handle weight maps touching
// several components, and cope with empty-row vertices.
func TestGreedyCliqueDisconnected(t *testing.T) {
	net := twoIslands(t)
	g := mustBuild(t, net, ModelTwoHop)
	iso, err := net.FindLink(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	weight := make(map[topology.LinkID]float64)
	for _, l := range net.Links() {
		weight[l.ID] = 1
	}
	clique, w := g.GreedyClique(weight)
	if len(clique) == 0 {
		t.Fatal("empty clique on a graph with edges")
	}
	if w != float64(len(clique)) {
		t.Errorf("clique weight = %g, want %d", w, len(clique))
	}
	isl := islandOf(t, net, clique[0])
	for _, a := range clique {
		if got := islandOf(t, net, a); got != isl {
			t.Fatalf("clique spans islands %d and %d", isl, got)
		}
		for _, b := range clique {
			if a != b && !g.Conflicts(a, b) {
				t.Fatalf("returned set is not a clique: %d and %d do not conflict", a, b)
			}
		}
	}
	// All four links of one chain island: the two middle-hop pairs all
	// mutually conflict under two-hop, so the clique must cover the island.
	if len(clique) != 4 {
		t.Errorf("clique size = %d, want 4 (all links of one chain island)", len(clique))
	}
	// Weight only on the empty-row link: the clique is that single vertex.
	clique, w = g.GreedyClique(map[topology.LinkID]float64{iso: 2.5})
	if len(clique) != 1 || clique[0] != iso || w != 2.5 {
		t.Errorf("isolated clique = %v weight %g, want [%d] weight 2.5", clique, w, iso)
	}
	// Empty and all-zero weight maps yield an empty clique.
	if clique, w = g.GreedyClique(nil); len(clique) != 0 || w != 0 {
		t.Errorf("nil weights: clique = %v weight %g, want empty", clique, w)
	}
	if clique, w = g.GreedyClique(map[topology.LinkID]float64{iso: 0}); len(clique) != 0 || w != 0 {
		t.Errorf("zero weights: clique = %v weight %g, want empty", clique, w)
	}
}
