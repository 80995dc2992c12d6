// Package topology models wireless mesh network topologies: nodes with
// positions, directed radio links, and the connectivity/interference
// relations derived from them.
//
// The package is the substrate for conflict-graph construction
// (internal/conflict) and TDMA scheduling (internal/schedule). Topologies may
// be generated (chain, ring, grid, random unit-disk, k-ary tree), or built
// explicitly link by link.
package topology

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node in a Network. IDs are dense indices in [0, N).
type NodeID int

// LinkID identifies a directed link in a Network. IDs are dense indices in
// [0, L) assigned in insertion order.
type LinkID int

// Node is a mesh router. Position is in meters; it drives the unit-disk
// connectivity and interference models.
type Node struct {
	ID   NodeID
	X, Y float64
	// Gateway marks the node as the mesh gateway (traffic sink/source for
	// access scenarios and the root of the synchronization tree).
	Gateway bool
}

// Link is a directed radio link From -> To.
type Link struct {
	ID   LinkID
	From NodeID
	To   NodeID
	// RateBps is the PHY rate available on the link in bits per second.
	RateBps float64
}

// Network is a mesh topology: a set of nodes and directed links.
//
// The zero value is an empty network ready for use via AddNode/AddLink.
type Network struct {
	nodes []Node
	links []Link
	// out[from] and in[to] are link IDs sorted by insertion order.
	out map[NodeID][]LinkID
	in  map[NodeID][]LinkID
	// linkIndex maps (from,to) to the link ID.
	linkIndex map[[2]NodeID]LinkID
	// nbr[from] caches the out-neighbor node IDs sorted ascending,
	// maintained by AddLink so Neighbors/VisitNeighbors never re-sort.
	nbr map[NodeID][]NodeID
}

// Errors returned by Network mutators and accessors.
var (
	ErrNodeNotFound  = errors.New("topology: node not found")
	ErrLinkNotFound  = errors.New("topology: link not found")
	ErrDuplicateLink = errors.New("topology: duplicate link")
	ErrSelfLoop      = errors.New("topology: self loop")
)

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		out:       make(map[NodeID][]LinkID),
		in:        make(map[NodeID][]LinkID),
		linkIndex: make(map[[2]NodeID]LinkID),
		nbr:       make(map[NodeID][]NodeID),
	}
}

// AddNode appends a node at position (x, y) and returns its ID.
func (n *Network) AddNode(x, y float64) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{ID: id, X: x, Y: y})
	return id
}

// SetGateway marks node id as the (single) gateway, clearing any previous
// gateway mark.
func (n *Network) SetGateway(id NodeID) error {
	if !n.hasNode(id) {
		return fmt.Errorf("set gateway %d: %w", id, ErrNodeNotFound)
	}
	for i := range n.nodes {
		n.nodes[i].Gateway = false
	}
	n.nodes[id].Gateway = true
	return nil
}

// Gateway returns the gateway node ID, or false if none is set.
func (n *Network) Gateway() (NodeID, bool) {
	for _, nd := range n.nodes {
		if nd.Gateway {
			return nd.ID, true
		}
	}
	return 0, false
}

// AddLink adds a directed link from -> to with the given PHY rate and
// returns its ID. Adding a duplicate or a self loop is an error.
func (n *Network) AddLink(from, to NodeID, rateBps float64) (LinkID, error) {
	if !n.hasNode(from) || !n.hasNode(to) {
		return 0, fmt.Errorf("add link %d->%d: %w", from, to, ErrNodeNotFound)
	}
	if from == to {
		return 0, fmt.Errorf("add link %d->%d: %w", from, to, ErrSelfLoop)
	}
	if _, dup := n.linkIndex[[2]NodeID{from, to}]; dup {
		return 0, fmt.Errorf("add link %d->%d: %w", from, to, ErrDuplicateLink)
	}
	id := LinkID(len(n.links))
	n.links = append(n.links, Link{ID: id, From: from, To: to, RateBps: rateBps})
	n.out[from] = append(n.out[from], id)
	n.in[to] = append(n.in[to], id)
	n.linkIndex[[2]NodeID{from, to}] = id
	if n.nbr == nil {
		n.nbr = make(map[NodeID][]NodeID)
	}
	// Insert to into the sorted neighbor cache; duplicate links are rejected
	// above, so each target appears once.
	nbrs := n.nbr[from]
	pos := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= to })
	nbrs = append(nbrs, 0)
	copy(nbrs[pos+1:], nbrs[pos:])
	nbrs[pos] = to
	n.nbr[from] = nbrs
	return id, nil
}

// AddBidirectional adds both directions between a and b at the same rate and
// returns the two link IDs (a->b, b->a).
func (n *Network) AddBidirectional(a, b NodeID, rateBps float64) (LinkID, LinkID, error) {
	ab, err := n.AddLink(a, b, rateBps)
	if err != nil {
		return 0, 0, err
	}
	ba, err := n.AddLink(b, a, rateBps)
	if err != nil {
		return 0, 0, err
	}
	return ab, ba, nil
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the number of directed links.
func (n *Network) NumLinks() int { return len(n.links) }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) (Node, error) {
	if !n.hasNode(id) {
		return Node{}, fmt.Errorf("node %d: %w", id, ErrNodeNotFound)
	}
	return n.nodes[id], nil
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) (Link, error) {
	if id < 0 || int(id) >= len(n.links) {
		return Link{}, fmt.Errorf("link %d: %w", id, ErrLinkNotFound)
	}
	return n.links[id], nil
}

// FindLink returns the ID of the link from -> to.
func (n *Network) FindLink(from, to NodeID) (LinkID, error) {
	id, ok := n.linkIndex[[2]NodeID{from, to}]
	if !ok {
		return 0, fmt.Errorf("link %d->%d: %w", from, to, ErrLinkNotFound)
	}
	return id, nil
}

// Links returns a copy of all links in ID order.
func (n *Network) Links() []Link {
	out := make([]Link, len(n.links))
	copy(out, n.links)
	return out
}

// Nodes returns a copy of all nodes in ID order.
func (n *Network) Nodes() []Node {
	out := make([]Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// OutLinks returns the IDs of links leaving node id.
func (n *Network) OutLinks(id NodeID) []LinkID {
	out := make([]LinkID, len(n.out[id]))
	copy(out, n.out[id])
	return out
}

// VisitNeighbors calls fn for every out-neighbor of id in ascending node-ID
// order, without allocating. Iteration stops early when fn returns false.
func (n *Network) VisitNeighbors(id NodeID, fn func(NodeID) bool) {
	for _, nb := range n.nbr[id] {
		if !fn(nb) {
			return
		}
	}
}

// Distance returns the Euclidean distance between two nodes in meters.
func (n *Network) Distance(a, b NodeID) (float64, error) {
	if !n.hasNode(a) || !n.hasNode(b) {
		return 0, fmt.Errorf("distance %d-%d: %w", a, b, ErrNodeNotFound)
	}
	dx := n.nodes[a].X - n.nodes[b].X
	dy := n.nodes[a].Y - n.nodes[b].Y
	return math.Hypot(dx, dy), nil
}

// SetLinkRate changes the PHY rate of a link.
func (n *Network) SetLinkRate(id LinkID, rateBps float64) error {
	if id < 0 || int(id) >= len(n.links) {
		return fmt.Errorf("set rate on link %d: %w", id, ErrLinkNotFound)
	}
	if rateBps <= 0 {
		return fmt.Errorf("set rate on link %d: non-positive rate %g", id, rateBps)
	}
	n.links[id].RateBps = rateBps
	return nil
}

// Connected reports whether every node can reach every other node following
// directed links.
func (n *Network) Connected() bool {
	if len(n.nodes) == 0 {
		return true
	}
	// Strong connectivity check via forward and reverse BFS from node 0.
	if !n.bfsCovers(0, n.out, func(l LinkID) NodeID { return n.links[l].To }) {
		return false
	}
	return n.bfsCovers(0, n.in, func(l LinkID) NodeID { return n.links[l].From })
}

func (n *Network) bfsCovers(start NodeID, adj map[NodeID][]LinkID, next func(LinkID) NodeID) bool {
	seen := make([]bool, len(n.nodes))
	queue := []NodeID{start}
	seen[start] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range adj[cur] {
			nb := next(l)
			if !seen[nb] {
				seen[nb] = true
				count++
				queue = append(queue, nb)
			}
		}
	}
	return count == len(n.nodes)
}

func (n *Network) hasNode(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes)
}
