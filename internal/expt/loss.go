package expt

import (
	"fmt"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/stats"
)

// Loss measures broadcast delivery under independent per-frame loss
// (fading), a real-radio effect outside the paper's idealized model, and
// how much simple repetition (nodes keep the payload and re-relay)
// recovers. Rows sweep the loss rate.
func Loss(p Params, rates []float64) (*stats.Table, error) {
	if len(rates) == 0 {
		rates = []float64{0, 0.1, 0.2, 0.3}
	}
	n := p.Sizes[len(p.Sizes)-1]
	t := stats.NewTable(fmt.Sprintf("Frame loss vs repetition (n=%d)", n),
		"loss", "x1_delivery", "x3_delivery", "x6_delivery", "x6_rounds")
	for _, rate := range rates {
		var d1, d3, d6, r6 []float64
		for _, seed := range p.seeds() {
			net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
			if err != nil {
				return nil, err
			}
			for _, rep := range []int{1, 3, 6} {
				m, err := broadcast.RunReliable(net.Slots(), net.Root(), rep,
					broadcast.Options{LossRate: rate, LossSeed: seed * 3})
				if err != nil {
					return nil, err
				}
				switch rep {
				case 1:
					d1 = append(d1, m.DeliveryRatio())
				case 3:
					d3 = append(d3, m.DeliveryRatio())
				case 6:
					d6 = append(d6, m.DeliveryRatio())
					r6 = append(r6, float64(m.ScheduleLen))
				}
			}
		}
		t.AddRow(fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.3f", mean(d1)), fmt.Sprintf("%.3f", mean(d3)),
			fmt.Sprintf("%.3f", mean(d6)), stats.F(mean(r6)))
	}
	return t, nil
}
