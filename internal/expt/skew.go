package expt

import (
	"fmt"
	"math/rand"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/stats"
)

// Skew quantifies Section 3.3's synchronization relaxation: the TDM
// schedules assume synchronized rounds, and the paper argues only nodes at
// the same depth need tight synchronization. Rows sweep a uniform per-node
// clock offset in [-sigma, +sigma] against guard factors 1, 3 and 5; guard
// G tolerates skew up to G/2 rounds at a G-fold schedule cost.
func Skew(p Params, sigmas []int) (*stats.Table, error) {
	if len(sigmas) == 0 {
		sigmas = []int{0, 1, 2}
	}
	guards := []int{1, 3, 5}
	n := p.Sizes[len(p.Sizes)-1]
	data, err := sweep(p, sigmas, func(sigma int, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed * 23))
		opts := p.opts()
		opts.Skew = make(map[graph.NodeID]int)
		for _, id := range net.CNet().Tree().Nodes() {
			if sigma > 0 {
				opts.Skew[id] = rng.Intn(2*sigma+1) - sigma
			}
		}
		for _, g := range guards {
			plan, err := broadcast.ICFFPlanGuarded(net.Slots(), net.Root(), 1, g)
			if err != nil {
				return err
			}
			m, err := plan.Run(net.Graph(), opts)
			if err != nil {
				return err
			}
			s.add(fmt.Sprintf("g%d_delivery", g), m.DeliveryRatio())
			s.add(fmt.Sprintf("g%d_sched", g), float64(m.ScheduleLen))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Clock skew vs guard slots (n=%d)", n),
		"sigma", "g1_delivery", "g3_delivery", "g5_delivery", "g1_sched", "g3_sched", "g5_sched")
	for i, sigma := range sigmas {
		d := data[i]
		t.AddRow(stats.F(float64(sigma)),
			fmt.Sprintf("%.3f", mean(d["g1_delivery"])), fmt.Sprintf("%.3f", mean(d["g3_delivery"])),
			fmt.Sprintf("%.3f", mean(d["g5_delivery"])),
			stats.F(mean(d["g1_sched"])), stats.F(mean(d["g3_sched"])), stats.F(mean(d["g5_sched"])))
	}
	return t, nil
}
