package experiments

import (
	"fmt"

	"wimesh/internal/mesh16"
	"wimesh/internal/topology"
)

// R11ControlPlane measures the control-plane cost of getting a schedule to
// the nodes, centralized (MSH-CSCH round trip over the routing tree) versus
// distributed (MSH-DSCH three-way handshakes), as the chain grows. The
// centralized round trip needs control opportunities proportional to the
// tree depth but a single consistent schedule; the distributed handshake
// needs roughly three broadcasts per link and no gateway involvement.
func R11ControlPlane() (*Table, error) {
	t := &Table{
		ID: "R11",
		Header: []string{"nodes", "cen opportunities", "cen rounds", "cen bytes",
			"dist messages", "dist failed"},
		Notes: "chain topologies, one uplink demand per node; centralized = MSH-CSCH round trip, distributed = MSH-DSCH 3-way handshakes",
	}
	for _, n := range []int{3, 5, 8, 12, 16} {
		topo, err := topology.Chain(n, 100)
		if err != nil {
			return nil, err
		}
		rt, err := topo.BuildRoutingTree()
		if err != nil {
			return nil, err
		}
		demands := make(map[topology.LinkID]int, n-1)
		for i := 1; i < n; i++ {
			l, err := topo.FindLink(topology.NodeID(i), topology.NodeID(i-1))
			if err != nil {
				return nil, err
			}
			demands[l] = 2
		}
		cen, err := mesh16.CentralizedRoundTrip(topo, rt, demands)
		if err != nil {
			return nil, err
		}

		dist, err := mesh16.NewScheduler(mesh16.SchedulerConfig{Minislots: 128}, topo)
		if err != nil {
			return nil, err
		}
		for i := 1; i < n; i++ {
			if err := dist.RequestLink(topology.NodeID(i), topology.NodeID(i-1), 2); err != nil {
				return nil, err
			}
		}
		if _, err := dist.Run(5000); err != nil {
			return nil, fmt.Errorf("distributed run (n=%d): %w", n, err)
		}
		t.AddRow(n, cen.Opportunities(), cen.Rounds, cen.UpBytes+cen.DownBytes,
			dist.Messages(), dist.FailedRequests())
	}
	return t, nil
}
