package topology

import (
	"fmt"
	"math"
)

// Path is a sequence of link IDs forming a directed walk; consecutive links
// share a node (To of link i equals From of link i+1).
type Path []LinkID

// Hops returns the number of links on the path.
func (p Path) Hops() int { return len(p) }

// ShortestPath returns a minimum-hop directed path from src to dst using BFS.
// It returns ErrNoPath if dst is unreachable.
func (n *Network) ShortestPath(src, dst NodeID) (Path, error) {
	return n.ShortestPathAvoiding(src, dst, nil)
}

// ErrNoPath reports that no directed path exists between the endpoints.
var ErrNoPath = errNoPath

var errNoPath = fmt.Errorf("topology: no path")

// ShortestPathAvoiding returns a minimum-hop directed path from src to dst
// that uses no link in avoid (failed links, administratively down links).
// Among minimum-hop paths it returns the one BFS meets first, expanding
// nodes in queue order and each node's links in OutLinks order.
func (n *Network) ShortestPathAvoiding(src, dst NodeID, avoid map[LinkID]bool) (Path, error) {
	if !n.hasNode(src) || !n.hasNode(dst) {
		return nil, fmt.Errorf("shortest path %d->%d: %w", src, dst, ErrNodeNotFound)
	}
	if src == dst {
		return Path{}, nil
	}
	// prev[v] is the link used to reach v, -1 while v is unseen; the source
	// is marked seen with its own sentinel, never read back.
	prev := make([]LinkID, len(n.nodes))
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = -2
	queue := make([]NodeID, 1, len(n.nodes))
	queue[0] = src
	for k := 0; k < len(queue); k++ {
		for _, l := range n.out[queue[k]] {
			to := n.links[l].To
			if prev[to] != -1 || avoid[l] {
				continue
			}
			prev[to] = l
			if to == dst {
				return n.tracePath(src, dst, prev), nil
			}
			queue = append(queue, to)
		}
	}
	if len(avoid) == 0 {
		return nil, fmt.Errorf("shortest path %d->%d: %w", src, dst, ErrNoPath)
	}
	return nil, fmt.Errorf("shortest path %d->%d avoiding %d links: %w", src, dst, len(avoid), ErrNoPath)
}

// tracePath walks prev back from dst to src.
func (n *Network) tracePath(src, dst NodeID, prev []LinkID) Path {
	var rev Path
	for cur := dst; cur != src; {
		l := prev[cur]
		rev = append(rev, l)
		cur = n.links[l].From
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ShortestPathWeighted returns the minimum-total-weight directed path from
// src to dst under Dijkstra with per-link weights. Weights must be >= 1
// (expected-transmission-count style metrics); +Inf marks a link unusable.
func (n *Network) ShortestPathWeighted(src, dst NodeID, weight func(LinkID) float64) (Path, error) {
	if !n.hasNode(src) || !n.hasNode(dst) {
		return nil, fmt.Errorf("weighted path %d->%d: %w", src, dst, ErrNodeNotFound)
	}
	if weight == nil {
		return nil, fmt.Errorf("weighted path %d->%d: nil weight function", src, dst)
	}
	if src == dst {
		return Path{}, nil
	}
	const inf = math.MaxFloat64
	dist := make([]float64, len(n.nodes))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	prev := make([]LinkID, len(n.nodes))
	done := make([]bool, len(n.nodes))
	for {
		// Linear extract-min: topologies here are small.
		cur, best := NodeID(-1), inf
		for i, d := range dist {
			if !done[i] && d < best {
				cur, best = NodeID(i), d
			}
		}
		if cur == -1 {
			return nil, fmt.Errorf("weighted path %d->%d: %w", src, dst, ErrNoPath)
		}
		if cur == dst {
			return n.tracePath(src, dst, prev), nil
		}
		done[cur] = true
		for _, l := range n.out[cur] {
			w := weight(l)
			switch {
			case math.IsInf(w, 1):
				continue // unusable link
			case math.IsNaN(w) || w < 1:
				return nil, fmt.Errorf("weighted path: weight %g on link %d below 1", w, l)
			}
			to := n.links[l].To
			if d := dist[cur] + w; d < dist[to] {
				dist[to] = d
				prev[to] = l
			}
		}
	}
}

// RoutingTree holds minimum-hop routes between every node and the gateway,
// as used by access-network scenarios (all traffic to/from the gateway).
type RoutingTree struct {
	Gateway NodeID
	// Up[v] is the path v -> gateway; Down[v] is gateway -> v.
	Up   map[NodeID]Path
	Down map[NodeID]Path
	// Parent[v] is the next hop of v toward the gateway.
	Parent map[NodeID]NodeID
	// Depth[v] is the hop count from v to the gateway.
	Depth map[NodeID]int
}

// BuildRoutingTree computes minimum-hop paths between every node and the
// gateway. The network must have a gateway set and be connected.
func (n *Network) BuildRoutingTree() (*RoutingTree, error) {
	gw, ok := n.Gateway()
	if !ok {
		return nil, fmt.Errorf("routing tree: %w", ErrNoGateway)
	}
	rt := &RoutingTree{
		Gateway: gw,
		Up:      make(map[NodeID]Path, len(n.nodes)),
		Down:    make(map[NodeID]Path, len(n.nodes)),
		Parent:  make(map[NodeID]NodeID, len(n.nodes)),
		Depth:   make(map[NodeID]int, len(n.nodes)),
	}
	for _, nd := range n.nodes {
		if nd.ID == gw {
			rt.Up[gw], rt.Down[gw], rt.Depth[gw] = Path{}, Path{}, 0
			continue
		}
		up, err := n.ShortestPath(nd.ID, gw)
		if err != nil {
			return nil, fmt.Errorf("routing tree up %d: %w", nd.ID, err)
		}
		down, err := n.ShortestPath(gw, nd.ID)
		if err != nil {
			return nil, fmt.Errorf("routing tree down %d: %w", nd.ID, err)
		}
		rt.Up[nd.ID] = up
		rt.Down[nd.ID] = down
		rt.Depth[nd.ID] = len(up)
		rt.Parent[nd.ID] = n.links[up[0]].To
	}
	return rt, nil
}

// ErrNoGateway reports that the network has no gateway set.
var ErrNoGateway = fmt.Errorf("topology: no gateway set")

// PathNodes returns the node sequence visited by the path, starting with the
// From node of the first link. An empty path yields nil.
func (n *Network) PathNodes(p Path) ([]NodeID, error) {
	if len(p) == 0 {
		return nil, nil
	}
	first, err := n.Link(p[0])
	if err != nil {
		return nil, err
	}
	nodes := []NodeID{first.From}
	cur := first.From
	for _, l := range p {
		lk, err := n.Link(l)
		if err != nil {
			return nil, err
		}
		if lk.From != cur {
			return nil, fmt.Errorf("path broken at link %d: from %d, expected %d", l, lk.From, cur)
		}
		cur = lk.To
		nodes = append(nodes, cur)
	}
	return nodes, nil
}
