package topology

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	net := NewNetwork()
	for i := 0; i < 5; i++ {
		if got := net.AddNode(float64(i), 0); got != NodeID(i) {
			t.Fatalf("AddNode #%d returned %d", i, got)
		}
	}
	if net.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", net.NumNodes())
	}
}

func TestAddLinkValidation(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(0, 0)
	b := net.AddNode(1, 0)

	if _, err := net.AddLink(a, a, 1e6); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: got %v, want ErrSelfLoop", err)
	}
	if _, err := net.AddLink(a, 99, 1e6); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("missing node: got %v, want ErrNodeNotFound", err)
	}
	if _, err := net.AddLink(a, b, 1e6); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if _, err := net.AddLink(a, b, 1e6); !errors.Is(err, ErrDuplicateLink) {
		t.Errorf("duplicate: got %v, want ErrDuplicateLink", err)
	}
}

func TestFindLinkAndReverse(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(0, 0)
	b := net.AddNode(1, 0)
	ab, ba, err := net.AddBidirectional(a, b, 1e6)
	if err != nil {
		t.Fatalf("AddBidirectional: %v", err)
	}
	got, err := net.FindLink(a, b)
	if err != nil || got != ab {
		t.Errorf("FindLink(a,b) = %d, %v; want %d", got, err, ab)
	}
	rev, ok := net.Reverse(ab)
	if !ok || rev != ba {
		t.Errorf("Reverse(ab) = %d, %v; want %d, true", rev, ok, ba)
	}
	if _, err := net.FindLink(b, 42); !errors.Is(err, ErrLinkNotFound) {
		t.Errorf("FindLink missing: got %v, want ErrLinkNotFound", err)
	}
}

func TestGateway(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(0, 0)
	b := net.AddNode(1, 0)
	if _, ok := net.Gateway(); ok {
		t.Fatal("Gateway() reported a gateway on a fresh network")
	}
	if err := net.SetGateway(b); err != nil {
		t.Fatalf("SetGateway: %v", err)
	}
	if gw, ok := net.Gateway(); !ok || gw != b {
		t.Errorf("Gateway = %d, %t; want %d, true", gw, ok, b)
	}
	// Re-setting moves the mark.
	if err := net.SetGateway(a); err != nil {
		t.Fatalf("SetGateway: %v", err)
	}
	if gw, _ := net.Gateway(); gw != a {
		t.Errorf("Gateway after move = %d; want %d", gw, a)
	}
	if err := net.SetGateway(99); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("SetGateway(99): got %v, want ErrNodeNotFound", err)
	}
}

func TestDistance(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(0, 0)
	b := net.AddNode(3, 4)
	d, err := net.Distance(a, b)
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	if math.Abs(d-5) > 1e-12 {
		t.Errorf("Distance = %g, want 5", d)
	}
}

func TestChainGenerator(t *testing.T) {
	net, err := Chain(5, 100)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if net.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5", net.NumNodes())
	}
	if net.NumLinks() != 8 {
		t.Errorf("NumLinks = %d, want 8 (4 bidirectional)", net.NumLinks())
	}
	if !net.Connected() {
		t.Error("chain not connected")
	}
	if gw, ok := net.Gateway(); !ok || gw != 0 {
		t.Errorf("gateway = %d, %t; want 0, true", gw, ok)
	}
	if _, err := Chain(1, 100); !errors.Is(err, ErrBadParameter) {
		t.Errorf("Chain(1): got %v, want ErrBadParameter", err)
	}
}

func TestRingGenerator(t *testing.T) {
	net, err := Ring(6, 100)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	if net.NumLinks() != 12 {
		t.Errorf("NumLinks = %d, want 12", net.NumLinks())
	}
	if !net.Connected() {
		t.Error("ring not connected")
	}
	for _, nd := range net.Nodes() {
		if got := len(net.Neighbors(nd.ID)); got != 2 {
			t.Errorf("node %d has %d neighbors, want 2", nd.ID, got)
		}
	}
}

func TestGridGenerator(t *testing.T) {
	net, err := Grid(3, 4, 100)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if net.NumNodes() != 12 {
		t.Errorf("NumNodes = %d, want 12", net.NumNodes())
	}
	// Edges in a 3x4 grid: horizontal 2*4 + vertical 3*3 = 17, doubled.
	if net.NumLinks() != 34 {
		t.Errorf("NumLinks = %d, want 34", net.NumLinks())
	}
	if !net.Connected() {
		t.Error("grid not connected")
	}
}

func TestTreeGenerator(t *testing.T) {
	net, err := Tree(2, 3)
	if err != nil {
		t.Fatalf("Tree: %v", err)
	}
	// 1 + 2 + 4 + 8 = 15 nodes, 14 bidirectional edges.
	if net.NumNodes() != 15 {
		t.Errorf("NumNodes = %d, want 15", net.NumNodes())
	}
	if net.NumLinks() != 28 {
		t.Errorf("NumLinks = %d, want 28", net.NumLinks())
	}
	if !net.Connected() {
		t.Error("tree not connected")
	}
}

func TestRandomDiskDeterministicAndConnected(t *testing.T) {
	a, err := RandomDisk(12, 1000, 400, 7)
	if err != nil {
		t.Fatalf("RandomDisk: %v", err)
	}
	b, err := RandomDisk(12, 1000, 400, 7)
	if err != nil {
		t.Fatalf("RandomDisk: %v", err)
	}
	if !a.Connected() {
		t.Error("random disk not connected")
	}
	if a.NumLinks() != b.NumLinks() {
		t.Errorf("same seed produced different link counts: %d vs %d", a.NumLinks(), b.NumLinks())
	}
	for i := range a.Nodes() {
		na, nb := a.Nodes()[i], b.Nodes()[i]
		if na.X != nb.X || na.Y != nb.Y {
			t.Fatalf("same seed produced different node %d position", i)
		}
	}
}

// TestRandomDiskSparseDensifies pins the densify path: at these sparse
// parameters no placement at the requested range is connected (the
// historical single-round generator always failed here), so the generator
// must widen the range deterministically and still return a connected mesh.
func TestRandomDiskSparseDensifies(t *testing.T) {
	const (
		n    = 12
		side = 1000.0
		r    = 160.0
		seed = 4
	)
	a, err := RandomDisk(n, side, r, seed)
	if err != nil {
		t.Fatalf("RandomDisk sparse: %v", err)
	}
	if !a.Connected() {
		t.Error("densified disk not connected")
	}
	if a.NumNodes() != n {
		t.Errorf("NumNodes = %d, want %d", a.NumNodes(), n)
	}
	// Densification must widen links beyond the requested range — at least
	// one link longer than r proves the round-0 stream was exhausted.
	longer := 0
	for _, l := range a.Links() {
		d, err := a.Distance(l.From, l.To)
		if err != nil {
			t.Fatal(err)
		}
		if d > r {
			longer++
		}
	}
	if longer == 0 {
		t.Error("no link exceeds the requested range; densify round did not run")
	}
	// Same seed, same network: the retry rounds are seed-derived.
	b, err := RandomDisk(n, side, r, seed)
	if err != nil {
		t.Fatalf("RandomDisk sparse (second call): %v", err)
	}
	if a.NumLinks() != b.NumLinks() {
		t.Errorf("same seed produced different link counts: %d vs %d", a.NumLinks(), b.NumLinks())
	}
	for i := range a.Nodes() {
		na, nb := a.Nodes()[i], b.Nodes()[i]
		if na.X != nb.X || na.Y != nb.Y {
			t.Fatalf("same seed produced different node %d position", i)
		}
	}
}

// TestRandomDiskNoPlacement: a range far too short for any densified round
// must surface ErrNoPlacement, not hang or return a disconnected mesh.
func TestRandomDiskNoPlacement(t *testing.T) {
	_, err := RandomDisk(12, 10_000, 1, 3)
	if !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("got %v, want ErrNoPlacement", err)
	}
}

func TestShortestPathChain(t *testing.T) {
	net, err := Chain(6, 100)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	p, err := net.ShortestPath(0, 5)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if p.Hops() != 5 {
		t.Errorf("hops = %d, want 5", p.Hops())
	}
	nodes, err := net.PathNodes(p)
	if err != nil {
		t.Fatalf("PathNodes: %v", err)
	}
	for i, nd := range nodes {
		if nd != NodeID(i) {
			t.Errorf("path node %d = %d, want %d", i, nd, i)
		}
	}
}

func TestShortestPathSameNode(t *testing.T) {
	net, _ := Chain(3, 100)
	p, err := net.ShortestPath(1, 1)
	if err != nil {
		t.Fatalf("ShortestPath(1,1): %v", err)
	}
	if p.Hops() != 0 {
		t.Errorf("hops = %d, want 0", p.Hops())
	}
}

func TestShortestPathNoPath(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(0, 0)
	b := net.AddNode(1, 0)
	c := net.AddNode(2, 0)
	if _, err := net.AddLink(a, b, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := net.ShortestPath(a, c); !errors.Is(err, ErrNoPath) {
		t.Errorf("got %v, want ErrNoPath", err)
	}
}

func TestRoutingTree(t *testing.T) {
	net, err := Grid(3, 3, 100)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	rt, err := net.BuildRoutingTree()
	if err != nil {
		t.Fatalf("BuildRoutingTree: %v", err)
	}
	if rt.Gateway != 0 {
		t.Errorf("gateway = %d, want 0", rt.Gateway)
	}
	// Corner opposite the gateway in a 3x3 grid is 4 hops away.
	if rt.Depth[8] != 4 {
		t.Errorf("depth of node 8 = %d, want 4", rt.Depth[8])
	}
	if rt.Depth[0] != 0 {
		t.Errorf("gateway depth = %d, want 0", rt.Depth[0])
	}
	// Parent pointers shrink depth by exactly one.
	for _, nd := range net.Nodes() {
		if nd.ID == rt.Gateway {
			continue
		}
		p := rt.Parent[nd.ID]
		if rt.Depth[p] != rt.Depth[nd.ID]-1 {
			t.Errorf("parent of %d is %d at depth %d, want depth %d", nd.ID, p, rt.Depth[p], rt.Depth[nd.ID]-1)
		}
	}
}

func TestRoutingTreeNoGateway(t *testing.T) {
	net := NewNetwork()
	net.AddNode(0, 0)
	if _, err := net.BuildRoutingTree(); !errors.Is(err, ErrNoGateway) {
		t.Errorf("got %v, want ErrNoGateway", err)
	}
}

func TestFlowSetRoutesAndDemand(t *testing.T) {
	net, err := Chain(4, 100)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	fs := NewFlowSet(net)
	f1, err := fs.Add(0, 3, 64e3, 0)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	f2, err := fs.Add(1, 3, 64e3, 0)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if f1 == f2 {
		t.Error("flow IDs collide")
	}
	if fs.MaxHops() != 3 {
		t.Errorf("MaxHops = %d, want 3", fs.MaxHops())
	}
	demand := fs.LinkDemandBps()
	l12, err := net.FindLink(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if demand[l12] != 128e3 {
		t.Errorf("demand on 1->2 = %g, want 128e3 (two flows)", demand[l12])
	}
	l01, err := net.FindLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if demand[l01] != 64e3 {
		t.Errorf("demand on 0->1 = %g, want 64e3", demand[l01])
	}
}

func TestPathNodesBrokenPath(t *testing.T) {
	net, _ := Chain(4, 100)
	l01, _ := net.FindLink(0, 1)
	l23, _ := net.FindLink(2, 3)
	if _, err := net.PathNodes(Path{l01, l23}); err == nil {
		t.Error("PathNodes accepted a broken path")
	}
}

// Property: in any connected random-disk topology, BFS path length between
// the gateway and any node equals the routing-tree depth.
func TestPropertyRoutingDepthMatchesBFS(t *testing.T) {
	prop := func(seed int64) bool {
		net, err := RandomDisk(10, 1000, 450, seed%1000)
		if err != nil {
			return true // skip non-connectable placement params
		}
		rt, err := net.BuildRoutingTree()
		if err != nil {
			return false
		}
		for _, nd := range net.Nodes() {
			p, err := net.ShortestPath(nd.ID, rt.Gateway)
			if err != nil {
				return false
			}
			if p.Hops() != rt.Depth[nd.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Neighbors is symmetric for generators that add bidirectional
// links.
func TestPropertyNeighborSymmetry(t *testing.T) {
	prop := func(seed int64) bool {
		net, err := RandomDisk(8, 800, 400, seed%1000)
		if err != nil {
			return true
		}
		for _, nd := range net.Nodes() {
			for _, nb := range net.Neighbors(nd.ID) {
				found := false
				for _, back := range net.Neighbors(nb) {
					if back == nd.ID {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSetLinkRate(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(0, 0)
	b := net.AddNode(1, 0)
	l, err := net.AddLink(a, b, 11e6)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkRate(l, 5.5e6); err != nil {
		t.Fatal(err)
	}
	lk, err := net.Link(l)
	if err != nil {
		t.Fatal(err)
	}
	if lk.RateBps != 5.5e6 {
		t.Errorf("rate = %g", lk.RateBps)
	}
	if err := net.SetLinkRate(99, 1e6); !errors.Is(err, ErrLinkNotFound) {
		t.Errorf("missing link: got %v", err)
	}
	if err := net.SetLinkRate(l, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestShortestPathWeightedPrefersCleanDetour(t *testing.T) {
	// Diamond: 0 -> 3 directly (weight 5) or via 1,2 (1+1+1 = 3).
	net := NewNetwork()
	n0 := net.AddNode(0, 0)
	n1 := net.AddNode(1, 0)
	n2 := net.AddNode(2, 0)
	n3 := net.AddNode(3, 0)
	direct, err := net.AddLink(n0, n3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	w := map[LinkID]float64{direct: 5}
	for _, pair := range [][2]NodeID{{n0, n1}, {n1, n2}, {n2, n3}} {
		l, err := net.AddLink(pair[0], pair[1], 1e6)
		if err != nil {
			t.Fatal(err)
		}
		w[l] = 1
	}
	p, err := net.ShortestPathWeighted(n0, n3, func(l LinkID) float64 { return w[l] })
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 3 {
		t.Errorf("hops = %d, want 3 (detour)", p.Hops())
	}
	// Make the detour worse than direct: direct wins.
	w[direct] = 2
	p, err = net.ShortestPathWeighted(n0, n3, func(l LinkID) float64 { return w[l] })
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 1 {
		t.Errorf("hops = %d, want 1 (direct)", p.Hops())
	}
}

func TestShortestPathWeightedInfUnusable(t *testing.T) {
	net, err := Chain(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	l01, err := net.FindLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = net.ShortestPathWeighted(0, 2, func(l LinkID) float64 {
		if l == l01 {
			return math.Inf(1)
		}
		return 1
	})
	if !errors.Is(err, ErrNoPath) {
		t.Errorf("got %v, want ErrNoPath (only route crosses an Inf link)", err)
	}
	if _, err := net.ShortestPathWeighted(0, 2, func(LinkID) float64 { return 0.5 }); err == nil {
		t.Error("sub-1 weight accepted")
	}
	if _, err := net.ShortestPathWeighted(0, 2, nil); err == nil {
		t.Error("nil weight accepted")
	}
	if p, err := net.ShortestPathWeighted(1, 1, func(LinkID) float64 { return 1 }); err != nil || p.Hops() != 0 {
		t.Errorf("same-node path = %v, %v", p, err)
	}
}

func TestShortestPathAvoiding(t *testing.T) {
	net, err := Ring(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 2: two 2-hop routes. Avoid one first hop: must use the other.
	l01, err := net.FindLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := net.ShortestPathAvoiding(0, 2, map[LinkID]bool{l01: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) == 0 || p[0] == l01 {
		t.Errorf("path uses avoided link: %v", p)
	}
	// Avoid both directions out of 0: no path.
	l03, err := net.FindLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ShortestPathAvoiding(0, 2, map[LinkID]bool{l01: true, l03: true}); !errors.Is(err, ErrNoPath) {
		t.Errorf("got %v, want ErrNoPath", err)
	}
}
