package expt

import (
	"fmt"
	"math/rand"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/stats"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

// MultiChannel measures the Section 3.3 multi-channel claim: with k
// channels the broadcast completes in about (delta*h + Delta)/k rounds and
// nodes stay awake about (2*delta + Delta)/k rounds. Rows sweep k for the
// largest configured network size.
func MultiChannel(p Params, channels []int) (*stats.Table, error) {
	if len(channels) == 0 {
		channels = []int{1, 2, 4, 8}
	}
	n := p.Sizes[len(p.Sizes)-1]
	data, err := sweep(p, channels, func(k int, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		opts := p.opts()
		opts.Channels = k
		m, err := net.Broadcast(net.Root(), opts)
		if err != nil {
			return err
		}
		if !m.Completed {
			return fmt.Errorf("expt: k=%d broadcast incomplete: %s", k, m)
		}
		s.add("rounds", float64(m.CompletionRound))
		s.add("sched", float64(m.ScheduleLen))
		s.add("awake", float64(m.MaxAwake))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Multi-channel ICFF (n=%d)", n),
		"k", "rounds", "sched", "max_awake", "speedup_vs_k1")
	base := mean(data[0]["rounds"])
	for i, k := range channels {
		d := data[i]
		r := mean(d["rounds"])
		t.AddRow(stats.F(float64(k)), stats.F(r), stats.F(mean(d["sched"])),
			stats.F(mean(d["awake"])), ratio(base, r))
	}
	return t, nil
}

// Multicast measures the Section 3.4 claim that a multicast is much faster
// (fewer transmissions, earlier completion) than a broadcast as the group
// shrinks. Rows sweep the group-membership probability.
func Multicast(p Params, fracs []float64) (*stats.Table, error) {
	if len(fracs) == 0 {
		fracs = []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	}
	n := p.Sizes[len(p.Sizes)-1]
	data, err := sweep(p, fracs, func(frac float64, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed * 31))
		nodes := net.CNet().Tree().Nodes()
		joined := 0
		for _, id := range nodes {
			if rng.Float64() < frac {
				if err := net.JoinGroup(id, 1); err != nil {
					return err
				}
				joined++
			}
		}
		if joined == 0 {
			if err := net.JoinGroup(nodes[len(nodes)-1], 1); err != nil {
				return err
			}
			joined = 1
		}
		_, f := net.Groups().RelaySet(net.Slots(), 1)
		mc, err := net.Multicast(1, net.Root(), p.opts())
		if err != nil {
			return err
		}
		bc, err := net.Broadcast(net.Root(), p.opts())
		if err != nil {
			return err
		}
		if !mc.Completed || !bc.Completed {
			return fmt.Errorf("expt: multicast incomplete: %s / %s", mc, bc)
		}
		s.add("members", float64(joined))
		s.add("mc_tx", float64(mc.Transmissions))
		s.add("bc_tx", float64(bc.Transmissions))
		s.add("mc_done", float64(mc.CompletionRound))
		s.add("bc_done", float64(bc.CompletionRound))
		s.add("forced", float64(f))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Multicast vs broadcast (n=%d)", n),
		"group_frac", "members", "mc_tx", "bc_tx", "mc_last_rx", "bc_last_rx", "forced_relays")
	for i, frac := range fracs {
		d := data[i]
		t.AddRow(fmt.Sprintf("%.2f", frac), stats.F(mean(d["members"])), stats.F(mean(d["mc_tx"])),
			stats.F(mean(d["bc_tx"])), stats.F(mean(d["mc_done"])), stats.F(mean(d["bc_done"])),
			stats.F(mean(d["forced"])))
	}
	return t, nil
}

// Robustness measures Section 3.3's robustness claim: with a fraction of
// nodes dying at random rounds during the broadcast, CFF keeps delivering
// to the surviving reachable part while DFO's token stalls. Rows sweep the
// failure fraction and report mean delivery ratios.
func Robustness(p Params, fracs []float64) (*stats.Table, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.02, 0.05, 0.1, 0.2}
	}
	n := p.Sizes[len(p.Sizes)-1]
	data, err := sweep(p, fracs, func(frac float64, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		dfoPlanLen := 2 * (net.CNet().Backbone().Size() - 1)
		opts := p.opts()
		for _, f := range workload.FailureTrace(net.Graph(), net.Root(), frac, max(dfoPlanLen, 1), seed*17) {
			opts.Failures = append(opts.Failures, broadcast.NodeFailure{Node: f.Node, Round: f.Round})
		}
		icff, err := net.Broadcast(net.Root(), opts)
		if err != nil {
			return err
		}
		dfo, err := net.BroadcastDFO(net.Root(), opts)
		if err != nil {
			return err
		}
		s.add("cff", icff.DeliveryRatio())
		s.add("dfo", dfo.DeliveryRatio())
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Robustness under node failures (n=%d)", n),
		"fail_frac", "cff_delivery", "dfo_delivery", "cff_advantage")
	for i, frac := range fracs {
		c, d := mean(data[i]["cff"]), mean(data[i]["dfo"])
		t.AddRow(fmt.Sprintf("%.2f", frac), fmt.Sprintf("%.3f", c), fmt.Sprintf("%.3f", d), ratio(c, d))
	}
	return t, nil
}

// Reconfig measures Theorems 2 and 3: the round cost of node-move-in and
// node-move-out (structural knowledge-I/height part plus the time-slot
// maintenance part) as the network grows.
func Reconfig(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		st := net.Stats()
		s.add("bound", float64(2*st.Height+2*st.DegreeBT+st.DegreeG))

		// Move-in: attach a fresh node next to a random existing one.
		rng := rand.New(rand.NewSource(seed * 13))
		nodes := net.CNet().Tree().Nodes()
		anchor := nodes[rng.Intn(len(nodes))]
		nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
		preStruct, preSlot := net.Stats().StructuralRounds, net.Stats().SlotRounds
		if err := net.Join(graph.NodeID(n+5000), nbrs); err != nil {
			return err
		}
		post := net.Stats()
		s.add("in_rounds", float64(post.StructuralRounds-preStruct))
		s.add("in_slot", float64(post.SlotRounds-preSlot))

		// Move-out: remove a safe node.
		victim, ok := safeLeaveCandidate(net)
		if !ok {
			return nil
		}
		preStruct, preSlot = post.StructuralRounds, post.SlotRounds
		if err := net.Leave(victim); err != nil {
			return err
		}
		post = net.Stats()
		s.add("out_rounds", float64(post.StructuralRounds-preStruct))
		s.add("out_slot", float64(post.SlotRounds-preSlot))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Reconfiguration cost (Theorems 2 and 3)",
		"nodes", "movein_rounds", "movein_slot", "moveout_rounds", "moveout_slot", "bound_2h+2d+D")
	for i, n := range p.Sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["in_rounds"])), stats.F(mean(d["in_slot"])),
			stats.F(mean(d["out_rounds"])), stats.F(mean(d["out_slot"])), stats.F(mean(d["bound"])))
	}
	return t, nil
}

// Areas repeats the Fig. 8 and Fig. 10 measurements across the paper's
// three region scales (8x8, 10x10, 12x12 units) at a fixed node count.
func Areas(p Params, sides []int) (*stats.Table, error) {
	if len(sides) == 0 {
		sides = []int{8, 10, 12}
	}
	n := p.Sizes[len(p.Sizes)-1]
	data, err := sweep(p, sides, func(side int, seed int64, s samples) error {
		net, ic, df, err := runBoth(p, "areas", side, n, seed)
		if err != nil {
			return err
		}
		st := net.Stats()
		s.add("cff", float64(ic.CompletionRound))
		s.add("dfo", float64(df.CompletionRound))
		s.add("size", float64(st.BackboneSize))
		s.add("height", float64(st.BackboneHeight))
		s.add("D", float64(st.DegreeG))
		s.add("Delta", float64(st.Delta))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Region-scale sweep (n=%d)", n),
		"side_units", "cff_rounds", "dfo_rounds", "bt_size", "bt_height", "D", "Delta")
	for i, side := range sides {
		d := data[i]
		t.AddRow(stats.F(float64(side)), stats.F(mean(d["cff"])), stats.F(mean(d["dfo"])),
			stats.F(mean(d["size"])), stats.F(mean(d["height"])), stats.F(mean(d["D"])), stats.F(mean(d["Delta"])))
	}
	return t, nil
}

// AblationAlg1VsAlg2 compares plain CNet flooding (Algorithm 1) with the
// backbone-first improvement (Algorithm 2), the design choice Section 3.3
// motivates: the backbone's smaller degree yields smaller slots and a
// shorter schedule.
func AblationAlg1VsAlg2(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		a2, err := net.Broadcast(net.Root(), p.opts())
		if err != nil {
			return err
		}
		a1, err := net.BroadcastCFF(net.Root(), p.opts())
		if err != nil {
			return err
		}
		if !a1.Completed || !a2.Completed {
			return errIncomplete("Ablation", n, seed, a1, a2)
		}
		s.add("alg1", float64(a1.CompletionRound))
		s.add("alg2", float64(a2.CompletionRound))
		s.add("alg1_awake", float64(a1.MaxAwake))
		s.add("alg2_awake", float64(a2.MaxAwake))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation — Algorithm 1 (CNet flooding) vs Algorithm 2 (backbone-first)",
		"nodes", "alg1_rounds", "alg2_rounds", "alg1_awake", "alg2_awake")
	for i, n := range p.Sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["alg1"])), stats.F(mean(d["alg2"])),
			stats.F(mean(d["alg1_awake"])), stats.F(mean(d["alg2_awake"])))
	}
	return t, nil
}

// AblationSlotCondition compares the paper's literal Time-Slot Condition 2
// against the strict cross-depth condition this implementation defaults to
// (DESIGN.md §5): slot magnitudes and the delivery ratio each achieves in
// Algorithm 2's shared leaf window.
func AblationSlotCondition(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, p.Side, n))
		if err != nil {
			return err
		}
		for _, cc := range []struct {
			cond timeslot.Condition
			name string
		}{
			{timeslot.ConditionPaper, "paper"},
			{timeslot.ConditionStrict, "strict"},
		} {
			net, err := core.Build(d.Graph(), core.Config{SlotCondition: cc.cond})
			if err != nil {
				return err
			}
			m, err := net.Broadcast(net.Root(), p.opts())
			if err != nil {
				return err
			}
			s.add(cc.name+"_Delta", float64(net.Stats().Delta))
			s.add(cc.name+"_delivery", m.DeliveryRatio())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation — paper vs strict l-slot condition",
		"nodes", "paper_Delta", "strict_Delta", "paper_delivery", "strict_delivery")
	for i, n := range p.Sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["paper_Delta"])), stats.F(mean(d["strict_Delta"])),
			fmt.Sprintf("%.4f", mean(d["paper_delivery"])), fmt.Sprintf("%.4f", mean(d["strict_delivery"])))
	}
	return t, nil
}
