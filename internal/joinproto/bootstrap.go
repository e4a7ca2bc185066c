package joinproto

import (
	"fmt"

	"dynsens/internal/core"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// BootstrapResult reports a full protocol-level self-construction.
type BootstrapResult struct {
	// Network is the constructed, verified network.
	Network *core.Network
	// Joins holds the per-node protocol results in insertion order.
	Joins []Result
	// TotalRounds sums every phase of every join — the complete
	// self-construction cost of Section 5's first method, measured.
	TotalRounds int
	// IncompleteDiscoveries counts joins whose discovery missed at least
	// one physical neighbor (the structure then simply lacks that edge).
	IncompleteDiscoveries int
}

// Bootstrap self-constructs a network over a deployment purely through the
// message-level node-move-in protocol: node 0 becomes the sink, and nodes
// 1..n-1 join one at a time, each first discovering its neighbors over the
// air. This is Section 5's "add nodes of G one by one into CNet(G) by
// using node-move-in", executed end to end on the radio engine. Every
// join's phases run under radioCfg, each counting rounds from 1 (see Join).
func Bootstrap(d *geom.Deployment, cfg core.Config, seed int64, radioCfg radio.Config) (*BootstrapResult, error) {
	if d.NumNodes() == 0 {
		return nil, fmt.Errorf("joinproto: empty deployment")
	}
	cfg.Root = 0
	net := core.New(cfg)
	res := &BootstrapResult{Network: net}
	for i := 1; i < d.NumNodes(); i++ {
		id := graph.NodeID(i)
		// Physical neighbors among already-joined nodes.
		var nbrs []graph.NodeID
		for j := 0; j < i; j++ {
			if d.Pos[i].InRange(d.Pos[j], d.Range) {
				nbrs = append(nbrs, graph.NodeID(j))
			}
		}
		if len(nbrs) == 0 {
			return nil, fmt.Errorf("joinproto: node %d hears nobody at join time (deployment not incremental-connected?)", id)
		}
		jr, err := Join(net, id, nbrs, seed+int64(i)*131, radioCfg)
		if err != nil {
			return nil, fmt.Errorf("joinproto: bootstrapping node %d: %w", id, err)
		}
		res.Joins = append(res.Joins, jr)
		res.TotalRounds += jr.TotalRounds()
		if !jr.DiscoveryComplete {
			res.IncompleteDiscoveries++
		}
	}
	if err := net.Verify(); err != nil {
		return nil, fmt.Errorf("joinproto: bootstrap invariants: %w", err)
	}
	return res, nil
}
