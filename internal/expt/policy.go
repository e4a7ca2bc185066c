package expt

import (
	"fmt"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/stats"
	"dynsens/internal/workload"
)

// PolicyAblation studies the parent-selection hook Definition 1 leaves to
// the application ("based on the criteria an application needs, such as on
// energy level"): lowest ID (the deterministic default), highest degree
// (prefer well-connected parents) and lowest degree. Rows report the
// structural and protocol consequences at the largest configured size.
func PolicyAblation(p Params) (*stats.Table, error) {
	n := p.Sizes[len(p.Sizes)-1]
	order := []string{"lowest-id", "max-degree", "min-degree"}
	data, err := sweep(p, []int{n}, func(n int, seed int64, s samples) error {
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, p.Side, n))
		if err != nil {
			return err
		}
		g := d.Graph()
		degVal := make(map[graph.NodeID]float64, n)
		negVal := make(map[graph.NodeID]float64, n)
		for _, id := range g.Nodes() {
			degVal[id] = float64(g.Degree(id))
			negVal[id] = -float64(g.Degree(id))
		}
		policies := map[string]cnet.Policy{
			"lowest-id":  nil,
			"max-degree": cnet.MaxValue(degVal),
			"min-degree": cnet.MaxValue(negVal),
		}
		for _, name := range order {
			net, err := core.Build(g, core.Config{Policy: policies[name]})
			if err != nil {
				return err
			}
			if err := net.Verify(); err != nil {
				return fmt.Errorf("policy %s: %w", name, err)
			}
			m, err := net.Broadcast(net.Root(), broadcast.Options{Config: p.engine()})
			if err != nil {
				return err
			}
			if !m.Completed {
				return fmt.Errorf("policy %s: broadcast incomplete", name)
			}
			st := net.Stats()
			s.add(name+"/clusters", float64(st.Clusters))
			s.add(name+"/bt", float64(st.BackboneSize))
			s.add(name+"/height", float64(st.Height))
			s.add(name+"/delta", float64(st.Delta))
			s.add(name+"/rounds", float64(m.CompletionRound))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := data[0]
	t := stats.NewTable(fmt.Sprintf("Parent-policy ablation (n=%d)", n),
		"policy", "clusters", "bt_size", "height", "Delta", "cff_rounds")
	for _, name := range order {
		t.AddRow(name, stats.F(mean(d[name+"/clusters"])), stats.F(mean(d[name+"/bt"])),
			stats.F(mean(d[name+"/height"])), stats.F(mean(d[name+"/delta"])), stats.F(mean(d[name+"/rounds"])))
	}
	return t, nil
}
