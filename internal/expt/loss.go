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
	data, err := sweep(p, rates, func(rate float64, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		opts := broadcast.Options{Config: p.engine()}
		opts.LossRate, opts.LossSeed = rate, seed*3
		for _, rep := range []int{1, 3, 6} {
			m, err := broadcast.RunReliable(net.Slots(), net.Root(), rep, opts)
			if err != nil {
				return err
			}
			s.add(fmt.Sprintf("x%d", rep), m.DeliveryRatio())
			if rep == 6 {
				s.add("x6_rounds", float64(m.ScheduleLen))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Frame loss vs repetition (n=%d)", n),
		"loss", "x1_delivery", "x3_delivery", "x6_delivery", "x6_rounds")
	for i, rate := range rates {
		d := data[i]
		t.AddRow(fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.3f", mean(d["x1"])), fmt.Sprintf("%.3f", mean(d["x3"])),
			fmt.Sprintf("%.3f", mean(d["x6"])), stats.F(mean(d["x6_rounds"])))
	}
	return t, nil
}
