package conflict

import (
	"fmt"
	"math/rand"
	"testing"

	"wimesh/internal/topology"
)

// randomMesh places n nodes uniformly in a side x side square and connects
// every pair within commRange bidirectionally. Deterministic for a seed.
func randomMesh(t *testing.T, rng *rand.Rand, n int, side, commRange float64) *topology.Network {
	t.Helper()
	net := topology.NewNetwork()
	for i := 0; i < n; i++ {
		net.AddNode(rng.Float64()*side, rng.Float64()*side)
	}
	nodes := net.Nodes()
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			d, err := net.Distance(nodes[i].ID, nodes[j].ID)
			if err != nil {
				t.Fatalf("distance: %v", err)
			}
			if d <= commRange {
				if _, _, err := net.AddBidirectional(nodes[i].ID, nodes[j].ID, 11e6); err != nil {
					t.Fatalf("add link: %v", err)
				}
			}
		}
	}
	return net
}

// naiveConflicts reimplements the interference models pairwise from first
// principles, independently of the bitset adjacency: primary conflicts are
// shared nodes; two-hop adds transmitter-neighbours-receiver pairs;
// geometric adds transmitter-within-range-of-receiver pairs.
func naiveConflicts(t *testing.T, net *topology.Network, a, b topology.Link, opts Options) bool {
	t.Helper()
	if a.ID == b.ID {
		return true
	}
	if a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To {
		return true
	}
	oneHop := func(x, y topology.NodeID) bool {
		if _, err := net.FindLink(x, y); err == nil {
			return true
		}
		_, err := net.FindLink(y, x)
		return err == nil
	}
	inRange := func(x, y topology.NodeID) bool {
		d, err := net.Distance(x, y)
		if err != nil {
			t.Fatalf("distance: %v", err)
		}
		return d <= opts.InterferenceRange
	}
	switch opts.Model {
	case ModelPrimary:
		return false
	case ModelTwoHop:
		return oneHop(a.From, b.To) || oneHop(b.From, a.To)
	case ModelGeometric:
		return inRange(a.From, b.To) || inRange(b.From, a.To)
	default:
		t.Fatalf("bad model %v", opts.Model)
		return false
	}
}

// TestConflictsMatchesNaive checks the bitset-backed Conflicts and the
// adjacency lists against an independent pairwise reimplementation on
// randomized topologies, across all three interference models.
func TestConflictsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []Options{
		{Model: ModelPrimary},
		{Model: ModelTwoHop},
		{Model: ModelGeometric, InterferenceRange: 60},
	}
	for trial := 0; trial < 8; trial++ {
		net := randomMesh(t, rng, 4+rng.Intn(10), 120, 45)
		links := net.Links()
		for _, opts := range cases {
			t.Run(fmt.Sprintf("trial%d/%v", trial, opts.Model), func(t *testing.T) {
				g, err := Build(net, opts)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				edges := 0
				for i := range links {
					for j := range links {
						want := naiveConflicts(t, net, links[i], links[j], opts)
						if got := g.Conflicts(links[i].ID, links[j].ID); got != want {
							t.Fatalf("Conflicts(%d,%d) = %v, want %v (model %v)",
								links[i].ID, links[j].ID, got, want, opts.Model)
						}
						if i < j && want {
							edges++
						}
					}
				}
				if g.NumEdges() != edges {
					t.Errorf("NumEdges = %d, want %d", g.NumEdges(), edges)
				}
				// VisitNeighbors must agree with the matrix.
				for _, l := range links {
					var nbs []topology.LinkID
					g.VisitNeighbors(l.ID, func(nb topology.LinkID) bool {
						nbs = append(nbs, nb)
						return true
					})
					for k := range nbs {
						if k > 0 && nbs[k-1] >= nbs[k] {
							t.Fatalf("link %d: neighbors not sorted: %v", l.ID, nbs)
						}
						if !g.Conflicts(l.ID, nbs[k]) {
							t.Fatalf("link %d: neighbor %d not in matrix", l.ID, nbs[k])
						}
					}
					if g.Degree(l.ID) != len(nbs) {
						t.Errorf("link %d: Degree=%d, want %d", l.ID, g.Degree(l.ID), len(nbs))
					}
				}
			})
		}
	}
}

// TestVisitNeighborsEarlyStop checks that iteration stops when fn returns
// false.
func TestVisitNeighborsEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := randomMesh(t, rng, 8, 100, 60)
	g, err := Build(net, Options{Model: ModelTwoHop})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, l := range net.Links() {
		if g.Degree(l.ID) < 2 {
			continue
		}
		calls := 0
		g.VisitNeighbors(l.ID, func(topology.LinkID) bool {
			calls++
			return false
		})
		if calls != 1 {
			t.Fatalf("link %d: early stop visited %d neighbors", l.ID, calls)
		}
		return
	}
	t.Skip("no vertex with degree >= 2 in the random mesh")
}
