package expt

import (
	"fmt"

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
	t := stats.NewTable(fmt.Sprintf("Clock skew vs guard slots (n=%d)", n),
		"sigma", "g1_delivery", "g3_delivery", "g5_delivery", "g1_sched", "g3_sched", "g5_sched")
	for _, sigma := range sigmas {
		del := make(map[int][]float64)
		sch := make(map[int][]float64)
		for _, seed := range p.seeds() {
			net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
			if err != nil {
				return nil, err
			}
			rng := p.rng(seed * 23)
			skew := make(map[graph.NodeID]int)
			for _, id := range net.CNet().Tree().Nodes() {
				if sigma > 0 {
					skew[id] = rng.Intn(2*sigma+1) - sigma
				}
			}
			for _, g := range guards {
				plan, err := broadcast.ICFFPlanGuarded(net.Slots(), net.Root(), 1, g)
				if err != nil {
					return nil, err
				}
				m, err := plan.Run(net.Graph(), broadcast.Options{Skew: skew})
				if err != nil {
					return nil, err
				}
				del[g] = append(del[g], m.DeliveryRatio())
				sch[g] = append(sch[g], float64(m.ScheduleLen))
			}
		}
		t.AddRow(stats.F(float64(sigma)),
			fmt.Sprintf("%.3f", mean(del[1])), fmt.Sprintf("%.3f", mean(del[3])),
			fmt.Sprintf("%.3f", mean(del[5])),
			stats.F(mean(sch[1])), stats.F(mean(sch[3])), stats.F(mean(sch[5])))
	}
	return t, nil
}
