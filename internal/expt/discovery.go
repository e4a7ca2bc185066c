package expt

import (
	"fmt"

	"dynsens/internal/core"
	"dynsens/internal/discovery"
	"dynsens/internal/graph"
	"dynsens/internal/joinproto"
	"dynsens/internal/stats"
	"dynsens/internal/workload"
)

// Discovery measures the randomized neighbor-discovery handshake behind
// node-move-in (Theorem 2's O(d_new) expected rounds): for each network
// size, a node of known degree runs the decay protocol on the radio
// engine and the measured rounds, collisions and completeness are
// reported against its degree.
func Discovery(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, p.Side, n))
		if err != nil {
			return err
		}
		g := d.Graph()
		// Probe a few representative joiners per deployment.
		for _, joiner := range []graph.NodeID{graph.NodeID(n / 4), graph.NodeID(n / 2), graph.NodeID(3 * n / 4)} {
			if !g.HasNode(joiner) || g.Degree(joiner) == 0 {
				continue
			}
			res, err := discovery.Run(g, joiner, seed*101+int64(joiner), p.engine())
			if err != nil {
				return err
			}
			s.add("degree", float64(g.Degree(joiner)))
			s.add("rounds", float64(res.Rounds))
			s.add("collisions", float64(res.Collisions))
			if res.Complete {
				s.add("complete", 1)
			} else {
				s.add("complete", 0)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Neighbor discovery — measured cost vs degree (Theorem 2 substrate)",
		"nodes", "avg_degree", "rounds", "rounds_per_degree", "collisions", "complete")
	for i, n := range p.Sizes {
		d := data[i]
		dm, rm := mean(d["degree"]), mean(d["rounds"])
		t.AddRow(stats.F(float64(n)), stats.F(dm), stats.F(rm), ratio(rm, dm),
			stats.F(mean(d["collisions"])), fmt.Sprintf("%.3f", mean(d["complete"])))
	}
	return t, nil
}

// bootstrapCap bounds the sizes used by the Bootstrap experiment: every
// node's join runs a full discovery episode on the engine, so paper-scale
// sweeps would dominate the harness runtime.
const bootstrapCap = 120

// BootstrapExp measures complete self-construction through the
// message-level protocol: total over-the-air rounds to build the network
// node by node (Section 5's first construction method, end to end),
// versus the gossip alternative's 2n.
func BootstrapExp(p Params) (*stats.Table, error) {
	t := stats.NewTable("Protocol self-construction (message-level, sizes capped)",
		"nodes", "total_rounds", "rounds_per_node", "incomplete_discoveries", "gossip_2n")
	seen := make(map[int]bool)
	var sizes []int
	for _, n := range p.Sizes {
		n = min(n, bootstrapCap)
		if !seen[n] {
			seen[n] = true
			sizes = append(sizes, n)
		}
	}
	data, err := sweep(p, sizes, func(n int, seed int64, s samples) error {
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, p.Side, n))
		if err != nil {
			return err
		}
		res, err := joinproto.Bootstrap(d, core.Config{}, seed*5, p.engine())
		if err != nil {
			return err
		}
		s.add("total", float64(res.TotalRounds))
		s.add("per_node", float64(res.TotalRounds)/float64(n-1))
		s.add("incomplete", float64(res.IncompleteDiscoveries))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["total"])), stats.F(mean(d["per_node"])),
			stats.F(mean(d["incomplete"])), stats.F(float64(2*n)))
	}
	return t, nil
}

// JoinProtocol measures the complete message-level node-move-in (Theorem
// 2) per phase: discovery, knowledge queries, attach handshake, slot
// maintenance and height reports — all in rounds, against the joiner's
// degree and the 2h+2d+D knowledge-(II) bound.
func JoinProtocol(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, p.Side, n))
		if err != nil {
			return err
		}
		net, err := core.Build(d.Graph(), core.Config{})
		if err != nil {
			return err
		}
		anchor := graph.NodeID(n / 2)
		nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
		res, err := joinproto.Join(net, graph.NodeID(n+1000), nbrs, seed*3, p.engine())
		if err != nil {
			return err
		}
		st := net.Stats()
		s.add("degree", float64(len(nbrs)))
		s.add("discover", float64(res.DiscoveryRounds))
		s.add("query", float64(res.QueryRounds))
		s.add("attach", float64(res.AttachRounds))
		s.add("slots", float64(res.SlotRounds))
		s.add("height", float64(res.HeightRounds))
		s.add("total", float64(res.TotalRounds()))
		s.add("bound", float64(2*st.Height+2*st.DegreeBT+st.DegreeG))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Message-level node-move-in, per-phase rounds (Theorem 2)",
		"nodes", "degree", "discover", "query", "attach", "slots", "height", "total", "bound_2h+2d+D")
	for i, n := range p.Sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["degree"])), stats.F(mean(d["discover"])),
			stats.F(mean(d["query"])), stats.F(mean(d["attach"])), stats.F(mean(d["slots"])),
			stats.F(mean(d["height"])), stats.F(mean(d["total"])), stats.F(mean(d["bound"])))
	}
	return t, nil
}
