package expt

import (
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/stats"
)

// Gathering measures the convergecast extension (the data-gathering
// pattern the paper's introduction motivates): exactness, rounds and
// awake costs on the cluster structure, per network size.
func Gathering(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		values := make(map[graph.NodeID]int64, n)
		for _, id := range net.CNet().Tree().Nodes() {
			values[id] = int64(id) + 1
		}
		m, err := net.Gather(values, p.engine())
		if err != nil {
			return err
		}
		exact := 0.0
		if m.Complete() && m.Sum == m.Expected {
			exact = 1
		}
		s.add("rounds", float64(m.Rounds))
		s.add("W", float64(m.ScheduleLen/max(net.CNet().Tree().Height(), 1)))
		s.add("awake", float64(m.MaxAwake))
		s.add("exact", exact)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Data gathering (convergecast) on the cluster structure",
		"nodes", "rounds", "window_W", "max_awake", "exact_fraction")
	for i, n := range p.Sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["rounds"])), stats.F(mean(d["W"])),
			stats.F(mean(d["awake"])), stats.F(mean(d["exact"])))
	}
	return t, nil
}
