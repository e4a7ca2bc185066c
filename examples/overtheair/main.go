// Over the air, end to end: this example never touches the structural API
// directly. The whole network self-constructs through the message-level
// node-move-in protocol (randomized neighbor discovery, knowledge queries,
// attach handshakes), a latecomer joins the same way, a battery-dead node
// departs with the announced Euler tour of node-move-out, and the sink
// broadcasts — all measured in radio rounds on the collision-accurate
// engine.
package main

import (
	"fmt"
	"log"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/joinproto"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func main() {
	deployment, err := workload.IncrementalConnected(workload.PaperConfig(77, 8, 80))
	if err != nil {
		log.Fatal(err)
	}

	// Self-construction: 79 joins, each starting from zero knowledge.
	boot, err := joinproto.Bootstrap(deployment, core.Config{}, 1, radio.Config{})
	if err != nil {
		log.Fatal(err)
	}
	net := boot.Network
	fmt.Printf("self-constructed %d nodes in %d radio rounds (%.0f rounds/node, %d incomplete discoveries)\n",
		net.Size(), boot.TotalRounds,
		float64(boot.TotalRounds)/float64(net.Size()-1), boot.IncompleteDiscoveries)

	// A latecomer is deployed next to node 40.
	anchor := graph.NodeID(40)
	nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
	join, err := joinproto.Join(net, 500, nbrs, 99, radio.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("latecomer:  %s\n", join)

	// A node with a draining battery leaves; pick one whose departure
	// keeps the network connected.
	var victim graph.NodeID
	found := false
	for _, id := range net.CNet().Tree().Nodes() {
		if id == net.Root() || id == 500 {
			continue
		}
		g := net.Graph().Clone()
		g.RemoveNode(id)
		if g.Connected() {
			victim, found = id, true
			break
		}
	}
	if !found {
		log.Fatal("no safely removable node")
	}
	leave, err := joinproto.Leave(net, victim, radio.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("departure:  %s\n", leave)

	if err := net.Verify(); err != nil {
		log.Fatalf("invariants after over-the-air churn: %v", err)
	}

	// The reconfigured network still broadcasts collision-free.
	m, err := net.Broadcast(net.Root(), broadcast.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broadcast:  %s\n", m)
	if !m.Completed {
		log.Fatal("broadcast incomplete")
	}
	fmt.Println("\nevery phase above ran as scheduled transmissions on the shared radio channel.")
}
