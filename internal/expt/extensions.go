package expt

import (
	"fmt"

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
	t := stats.NewTable(fmt.Sprintf("Multi-channel ICFF (n=%d)", n),
		"k", "rounds", "sched", "max_awake", "speedup_vs_k1")
	var base float64
	for _, k := range channels {
		var rounds, scheds, awakes []float64
		for _, seed := range p.seeds() {
			net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
			if err != nil {
				return nil, err
			}
			m, err := net.Broadcast(net.Root(), broadcast.Options{Channels: k})
			if err != nil {
				return nil, err
			}
			if !m.Completed {
				return nil, fmt.Errorf("expt: k=%d broadcast incomplete: %s", k, m)
			}
			rounds = append(rounds, float64(m.CompletionRound))
			scheds = append(scheds, float64(m.ScheduleLen))
			awakes = append(awakes, float64(m.MaxAwake))
		}
		r := mean(rounds)
		if k == channels[0] {
			base = r
		}
		t.AddRow(stats.F(float64(k)), stats.F(r), stats.F(mean(scheds)),
			stats.F(mean(awakes)), ratio(base, r))
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
	t := stats.NewTable(fmt.Sprintf("Multicast vs broadcast (n=%d)", n),
		"group_frac", "members", "mc_tx", "bc_tx", "mc_last_rx", "bc_last_rx", "forced_relays")
	for _, frac := range fracs {
		var members, mcTx, bcTx, mcDone, bcDone, forced []float64
		for _, seed := range p.seeds() {
			net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
			if err != nil {
				return nil, err
			}
			rng := p.rng(seed * 31)
			nodes := net.CNet().Tree().Nodes()
			joined := 0
			for _, id := range nodes {
				if rng.Float64() < frac {
					if err := net.JoinGroup(id, 1); err != nil {
						return nil, err
					}
					joined++
				}
			}
			if joined == 0 {
				if err := net.JoinGroup(nodes[len(nodes)-1], 1); err != nil {
					return nil, err
				}
				joined = 1
			}
			_, f := net.Groups().RelaySet(net.Slots(), 1)
			mc, err := net.Multicast(1, net.Root(), broadcast.Options{})
			if err != nil {
				return nil, err
			}
			bc, err := net.Broadcast(net.Root(), broadcast.Options{})
			if err != nil {
				return nil, err
			}
			if !mc.Completed || !bc.Completed {
				return nil, fmt.Errorf("expt: multicast incomplete: %s / %s", mc, bc)
			}
			members = append(members, float64(joined))
			mcTx = append(mcTx, float64(mc.Transmissions))
			bcTx = append(bcTx, float64(bc.Transmissions))
			mcDone = append(mcDone, float64(mc.CompletionRound))
			bcDone = append(bcDone, float64(bc.CompletionRound))
			forced = append(forced, float64(f))
		}
		t.AddRow(fmt.Sprintf("%.2f", frac), stats.F(mean(members)), stats.F(mean(mcTx)),
			stats.F(mean(bcTx)), stats.F(mean(mcDone)), stats.F(mean(bcDone)),
			stats.F(mean(forced)))
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
	t := stats.NewTable(fmt.Sprintf("Robustness under node failures (n=%d)", n),
		"fail_frac", "cff_delivery", "dfo_delivery", "cff_advantage")
	for _, frac := range fracs {
		var cffR, dfoR []float64
		for _, seed := range p.seeds() {
			net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
			if err != nil {
				return nil, err
			}
			dfoPlanLen := 2 * (net.CNet().Backbone().Size() - 1)
			trace := workload.FailureTrace(net.Graph(), net.Root(), frac, maxInt(dfoPlanLen, 1), seed*17)
			var fails []broadcast.NodeFailure
			for _, f := range trace {
				fails = append(fails, broadcast.NodeFailure{Node: f.Node, Round: f.Round})
			}
			icff, err := net.Broadcast(net.Root(), broadcast.Options{Failures: fails})
			if err != nil {
				return nil, err
			}
			dfo, err := net.BroadcastDFO(net.Root(), broadcast.Options{Failures: fails})
			if err != nil {
				return nil, err
			}
			cffR = append(cffR, icff.DeliveryRatio())
			dfoR = append(dfoR, dfo.DeliveryRatio())
		}
		c, d := mean(cffR), mean(dfoR)
		t.AddRow(fmt.Sprintf("%.2f", frac), fmt.Sprintf("%.3f", c), fmt.Sprintf("%.3f", d), ratio(c, d))
	}
	return t, nil
}

// Reconfig measures Theorems 2 and 3: the round cost of node-move-in and
// node-move-out (structural knowledge-I/height part plus the time-slot
// maintenance part) as the network grows.
func Reconfig(p Params) (*stats.Table, error) {
	t := stats.NewTable("Reconfiguration cost (Theorems 2 and 3)",
		"nodes", "movein_rounds", "movein_slot", "moveout_rounds", "moveout_slot", "bound_2h+2d+D")
	for _, n := range p.Sizes {
		var inR, inS, outR, outS, bounds []float64
		for _, seed := range p.seeds() {
			net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
			if err != nil {
				return nil, err
			}
			st := net.Stats()
			bounds = append(bounds, float64(2*st.Height+2*st.DegreeBT+st.DegreeG))

			// Move-in: attach a fresh node next to a random existing one.
			rng := p.rng(seed * 13)
			nodes := net.CNet().Tree().Nodes()
			anchor := nodes[rng.Intn(len(nodes))]
			nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
			preStruct, preSlot := net.Stats().StructuralRounds, net.Stats().SlotRounds
			if err := net.Join(graph.NodeID(n+5000), nbrs); err != nil {
				return nil, err
			}
			post := net.Stats()
			inR = append(inR, float64(post.StructuralRounds-preStruct))
			inS = append(inS, float64(post.SlotRounds-preSlot))

			// Move-out: remove a safe node.
			victim, ok := safeLeaveCandidate(net)
			if !ok {
				continue
			}
			preStruct, preSlot = post.StructuralRounds, post.SlotRounds
			if err := net.Leave(victim); err != nil {
				return nil, err
			}
			post = net.Stats()
			outR = append(outR, float64(post.StructuralRounds-preStruct))
			outS = append(outS, float64(post.SlotRounds-preSlot))
		}
		t.AddRow(stats.F(float64(n)), stats.F(mean(inR)), stats.F(mean(inS)),
			stats.F(mean(outR)), stats.F(mean(outS)), stats.F(mean(bounds)))
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
	t := stats.NewTable(fmt.Sprintf("Region-scale sweep (n=%d)", n),
		"side_units", "cff_rounds", "dfo_rounds", "bt_size", "bt_height", "D", "Delta")
	for _, side := range sides {
		q := p
		q.Side = side
		var cff, dfo, size, height, dd, delta []float64
		for _, seed := range q.seeds() {
			net, _, err := core.Deploy(q.Side, n, seed, core.Config{})
			if err != nil {
				return nil, err
			}
			ic, df, err := runBoth(q, net, n, seed, broadcast.Options{})
			if err != nil {
				return nil, err
			}
			if !ic.Completed || !df.Completed {
				return nil, errIncomplete("Areas", n, seed, ic, df)
			}
			st := net.Stats()
			cff = append(cff, float64(ic.CompletionRound))
			dfo = append(dfo, float64(df.CompletionRound))
			size = append(size, float64(st.BackboneSize))
			height = append(height, float64(st.BackboneHeight))
			dd = append(dd, float64(st.DegreeG))
			delta = append(delta, float64(st.Delta))
		}
		t.AddRow(stats.F(float64(side)), stats.F(mean(cff)), stats.F(mean(dfo)),
			stats.F(mean(size)), stats.F(mean(height)), stats.F(mean(dd)), stats.F(mean(delta)))
	}
	return t, nil
}

// AblationAlg1VsAlg2 compares plain CNet flooding (Algorithm 1) with the
// backbone-first improvement (Algorithm 2), the design choice Section 3.3
// motivates: the backbone's smaller degree yields smaller slots and a
// shorter schedule.
func AblationAlg1VsAlg2(p Params) (*stats.Table, error) {
	data, err := forEachPoint(p, func(net *core.Network, n int, seed int64) (map[string]float64, error) {
		a2, err := net.Broadcast(net.Root(), broadcast.Options{})
		if err != nil {
			return nil, err
		}
		a1, err := net.BroadcastCFF(net.Root(), broadcast.Options{})
		if err != nil {
			return nil, err
		}
		if !a1.Completed || !a2.Completed {
			return nil, errIncomplete("Ablation", n, seed, a1, a2)
		}
		return map[string]float64{
			"alg1":       float64(a1.CompletionRound),
			"alg2":       float64(a2.CompletionRound),
			"alg1_awake": float64(a1.MaxAwake),
			"alg2_awake": float64(a2.MaxAwake),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation — Algorithm 1 (CNet flooding) vs Algorithm 2 (backbone-first)",
		"nodes", "alg1_rounds", "alg2_rounds", "alg1_awake", "alg2_awake")
	for _, n := range p.Sizes {
		d := data[n]
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
	t := stats.NewTable("Ablation — paper vs strict l-slot condition",
		"nodes", "paper_Delta", "strict_Delta", "paper_delivery", "strict_delivery")
	for _, n := range p.Sizes {
		var pd, sd, pr, sr []float64
		for _, seed := range p.seeds() {
			d, err := workload.IncrementalConnected(workload.PaperConfig(seed, p.Side, n))
			if err != nil {
				return nil, err
			}
			for _, cc := range []struct {
				cond   timeslot.Condition
				deltas *[]float64
			}{
				{timeslot.ConditionPaper, &pd},
				{timeslot.ConditionStrict, &sd},
			} {
				cond, deltas := cc.cond, cc.deltas
				net, err := core.Build(d.Graph(), core.Config{SlotCondition: cond})
				if err != nil {
					return nil, err
				}
				m, err := net.Broadcast(net.Root(), broadcast.Options{})
				if err != nil {
					return nil, err
				}
				*deltas = append(*deltas, float64(net.Stats().Delta))
				if cond == timeslot.ConditionPaper {
					pr = append(pr, m.DeliveryRatio())
				} else {
					sr = append(sr, m.DeliveryRatio())
				}
			}
		}
		t.AddRow(stats.F(float64(n)), stats.F(mean(pd)), stats.F(mean(sd)),
			fmt.Sprintf("%.4f", mean(pr)), fmt.Sprintf("%.4f", mean(sr)))
	}
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
