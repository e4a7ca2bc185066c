package expt

import (
	"fmt"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/energy"
	"dynsens/internal/graph"
	"dynsens/internal/multinet"
	"dynsens/internal/stats"
	"dynsens/internal/workload"
)

// lifetimeCap bounds the reported epochs for protocols that idle.
const lifetimeCap = 1 << 30

// Lifetime quantifies the paper's "energy saving" claim as network
// lifetime: with every node given the same battery and one broadcast per
// dissemination epoch, how many epochs pass before the first node dies?
// CFF nodes sleep through almost the whole epoch; DFO nodes idle-listen
// for the entire tour, so their batteries drain tour-length times faster.
func Lifetime(p Params, budget float64) (*stats.Table, error) {
	if budget <= 0 {
		budget = 1e5
	}
	model := energy.DefaultModel()
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		_, icff, dfo, err := runBoth(p, "lifetime", p.Side, n, seed)
		if err != nil {
			return err
		}
		// An epoch lasts as long as the slower protocol needs, so both
		// protocols are compared over identical epoch lengths (the CFF
		// nodes spend the remainder asleep).
		epoch := max(icff.ScheduleLen, dfo.ScheduleLen)
		cffLife, _ := energy.Lifetime(model, budget, icff.Listens, icff.Transmits, epoch, lifetimeCap)
		dfoLife, _ := energy.Lifetime(model, budget, dfo.Listens, dfo.Transmits, epoch, lifetimeCap)
		s.add("cff", float64(cffLife))
		s.add("dfo", float64(dfoLife))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Network lifetime (budget %.0f units, 1 broadcast/epoch)", budget),
		"nodes", "cff_epochs", "dfo_epochs", "extension")
	for i, n := range p.Sizes {
		d := data[i]
		c, f := mean(d["cff"]), mean(d["dfo"])
		t.AddRow(stats.F(float64(n)), stats.F(c), stats.F(f), ratio(c, f))
	}
	return t, nil
}

// Failover measures the Section 2 multi-sink sketch: with two cluster-nets
// rooted at different sinks, a broadcast survives the death of the primary
// sink by retrying on the secondary. Rows compare single-net and dual-net
// delivery when the primary sink dies at round 1.
func Failover(p Params) (*stats.Table, error) {
	n := p.Sizes[len(p.Sizes)-1]
	data, err := sweep(p, []int{n}, func(n int, seed int64, s samples) error {
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, p.Side, n))
		if err != nil {
			return err
		}
		secondary := graph.NodeID(max(n/2, 1))
		m, err := multinet.Build(d.Graph(), []graph.NodeID{0, secondary}, core.Config{})
		if err != nil {
			return err
		}
		source := graph.NodeID(n - 1)
		opts := p.opts()
		opts.Failures = []broadcast.NodeFailure{{Node: 0, Round: 1}}

		// Single cluster-net: no fallback.
		solo, err := m.Nets()[0].Broadcast(source, opts)
		if err != nil {
			return err
		}
		s.add("single", solo.DeliveryRatio())

		// Dual cluster-net with failover.
		res, err := m.Broadcast(source, opts)
		if err != nil {
			return err
		}
		s.add("dual", res.Final().DeliveryRatio())
		s.add("attempts", float64(len(res.Attempts)))
		s.add("rounds", float64(res.TotalRounds))
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := data[0]
	t := stats.NewTable(fmt.Sprintf("Multi-sink failover (n=%d, primary sink dies)", n),
		"scenario", "delivery", "attempts", "total_rounds")
	t.AddRow("single-sink", fmt.Sprintf("%.3f", mean(d["single"])), "1", "-")
	t.AddRow("dual-sink", fmt.Sprintf("%.3f", mean(d["dual"])),
		stats.F(mean(d["attempts"])), stats.F(mean(d["rounds"])))
	return t, nil
}

// Construction compares the two Section 5 construction methods: node-by-
// node move-in (cost grows with total degrees and heights) versus gossip-
// then-local-computation (O(n) rounds flat).
func Construction(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, p.Side, n))
		if err != nil {
			return err
		}
		net, err := core.Build(d.Graph(), core.Config{})
		if err != nil {
			return err
		}
		st := net.Stats()
		s.add("movein", float64(st.StructuralRounds))
		s.add("slot", float64(st.SlotRounds))
		_, gcost, err := cnet.BuildByGossip(d.Graph(), 0, nil)
		if err != nil {
			return err
		}
		s.add("gossip", float64(gcost.Total()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Construction cost — incremental move-in vs gossip (Section 5)",
		"nodes", "movein_rounds", "movein_slot_rounds", "gossip_rounds")
	for i, n := range p.Sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["movein"])), stats.F(mean(d["slot"])), stats.F(mean(d["gossip"])))
	}
	return t, nil
}
