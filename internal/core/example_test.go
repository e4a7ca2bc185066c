package core_test

import (
	"fmt"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// tinyGraph builds a deterministic 6-node topology:
//
//	0 (sink) - 1 - 2
//	   \      |
//	    3     4 - 5
func tinyGraph() *graph.Graph {
	g := graph.New()
	edges := [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 3}, {1, 4}, {4, 5}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return g
}

// Example shows the whole lifecycle: build, broadcast, reconfigure,
// multicast, gather.
func Example() {
	net, err := core.Build(tinyGraph(), core.Config{})
	if err != nil {
		panic(err)
	}
	if err := net.Verify(); err != nil {
		panic(err)
	}

	m, _ := net.Broadcast(net.Root(), broadcast.Options{})
	fmt.Printf("broadcast delivered %d/%d\n", m.Received, m.Audience)

	// A node joins next to node 2, then leaves again.
	_ = net.Join(99, []graph.NodeID{2})
	fmt.Println("after join:", net.Size(), "nodes, verify:", net.Verify() == nil)
	_ = net.Leave(99)

	// Group 7 multicast to node 5.
	_ = net.JoinGroup(5, 7)
	mc, _ := net.Multicast(7, net.Root(), broadcast.Options{})
	fmt.Printf("multicast delivered %d/%d\n", mc.Received, mc.Audience)

	// Exact aggregation.
	sums := map[graph.NodeID]int64{0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6}
	gm, _ := net.Gather(sums, radio.Config{})
	fmt.Printf("gathered sum %d from %d nodes\n", gm.Sum, gm.Reporting)

	// Output:
	// broadcast delivered 6/6
	// after join: 7 nodes, verify: true
	// multicast delivered 1/1
	// gathered sum 21 from 6 nodes
}

// ExampleNetwork_Stats shows the structural statistics matching the
// paper's Figures 10 and 11.
func ExampleNetwork_Stats() {
	net, _ := core.Build(tinyGraph(), core.Config{})
	st := net.Stats()
	fmt.Printf("clusters=%d backbone=%d height=%d D=%d\n",
		st.Clusters, st.BackboneSize, st.Height, st.DegreeG)
	// Output:
	// clusters=3 backbone=4 height=3 D=3
}
