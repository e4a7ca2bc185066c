package expt

import (
	"fmt"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/stats"
)

// Flooding compares the paper's structured CFF broadcast against the
// unstructured probabilistic-flooding family the introduction cites
// (blind flooding suffers the broadcast-storm problem [16]; probabilistic
// variants trade delivery for fewer collisions). Rows sweep the forward
// probability at the largest configured size.
func Flooding(p Params, forwards []float64) (*stats.Table, error) {
	if len(forwards) == 0 {
		forwards = []float64{0.3, 0.5, 0.7, 1.0}
	}
	n := p.Sizes[len(p.Sizes)-1]
	// Variant keys: the two structured baselines, then one per forward
	// probability. One deployment per seed serves every variant.
	keys := []string{"cff", "round-robin"}
	for _, f := range forwards {
		keys = append(keys, fmt.Sprint(f))
	}
	data, err := sweep(p, []int{n}, func(n int, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		cff, err := net.Broadcast(net.Root(), p.opts())
		if err != nil {
			return err
		}
		rr, err := broadcast.RunRoundRobin(net.Graph(), net.Root(), 0, p.opts())
		if err != nil {
			return err
		}
		runs := []broadcast.Metrics{cff, rr}
		for _, f := range forwards {
			plan, err := broadcast.PFloodPlan(net.Graph(), net.Root(), broadcast.PFloodOptions{
				Seed: seed * 7, Forward: f,
			})
			if err != nil {
				return err
			}
			m, err := plan.Run(net.Graph(), p.opts())
			if err != nil {
				return err
			}
			runs = append(runs, m)
		}
		for i, m := range runs {
			s.add(keys[i]+"/delivery", m.DeliveryRatio())
			s.add(keys[i]+"/done", float64(m.CompletionRound))
			s.add(keys[i]+"/collisions", float64(m.Collisions))
			s.add(keys[i]+"/tx", float64(m.Transmissions))
			s.add(keys[i]+"/awake", float64(m.MaxAwake))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := data[0]
	t := stats.NewTable(fmt.Sprintf("Unstructured flooding baseline vs CFF (n=%d)",
		n), "protocol", "delivery", "last_rx", "collisions", "tx", "max_awake")
	for i, key := range keys {
		label := key
		if i >= 2 {
			label = fmt.Sprintf("flood_p=%.1f", forwards[i-2])
		}
		t.AddRow(label, fmt.Sprintf("%.3f", mean(d[key+"/delivery"])),
			stats.F(mean(d[key+"/done"])), stats.F(mean(d[key+"/collisions"])),
			stats.F(mean(d[key+"/tx"])), stats.F(mean(d[key+"/awake"])))
	}
	return t, nil
}
