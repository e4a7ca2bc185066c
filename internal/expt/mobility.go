package expt

import (
	"fmt"
	"sort"

	"dynsens/internal/core"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/stats"
	"dynsens/internal/workload"
)

// Mobility replays node movement — the paper's motivating dynamic — as
// leave/rejoin pairs against the self-reconfiguring structure, and
// measures the maintenance price per move and the broadcast health after
// every move. Rows sweep the wander radius (how far a node moves, in
// multiples of the communication range).
func Mobility(p Params, wanders []float64) (*stats.Table, error) {
	if len(wanders) == 0 {
		wanders = []float64{1, 2, 4}
	}
	n := p.Sizes[0]
	moves := 20
	data, err := sweep(p, wanders, func(wander float64, seed int64, s samples) error {
		cfg := workload.PaperConfig(seed, p.Side, n)
		base, events, err := workload.MobilityTrace(cfg, moves, wander)
		if err != nil {
			return err
		}
		net, err := core.Build(base.Graph(), core.Config{})
		if err != nil {
			return err
		}
		live := make(map[graph.NodeID]geom.Point)
		for i, pos := range base.Pos {
			live[graph.NodeID(i)] = pos
		}
		preStruct := net.Stats().StructuralRounds
		preSlot := net.Stats().SlotRounds
		for i := 0; i < len(events); i += 2 {
			lv, jn := events[i], events[i+1]
			if err := net.Leave(lv.Node); err != nil {
				return fmt.Errorf("mobility leave: %w", err)
			}
			delete(live, lv.Node)
			var nbrs []graph.NodeID
			for id, q := range live {
				if jn.Pos.InRange(q, cfg.Range) {
					nbrs = append(nbrs, id)
				}
			}
			sort.Slice(nbrs, func(a, b int) bool { return nbrs[a] < nbrs[b] })
			if err := net.Join(jn.Node, nbrs); err != nil {
				return fmt.Errorf("mobility join: %w", err)
			}
			live[jn.Node] = jn.Pos
			if err := net.Verify(); err != nil {
				return fmt.Errorf("mobility invariants after move %d: %w", i/2, err)
			}
		}
		st := net.Stats()
		s.add("struct", float64(st.StructuralRounds-preStruct)/float64(moves))
		s.add("slot", float64(st.SlotRounds-preSlot)/float64(moves))
		m, err := net.Broadcast(net.Root(), p.opts())
		if err != nil {
			return err
		}
		s.add("bcast", float64(m.CompletionRound))
		if !m.Completed {
			s.add("incomplete", 1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Mobility: reconfiguration under movement (n=%d, %d moves)", n, moves),
		"wander_x_range", "struct_rounds/move", "slot_rounds/move", "post_bcast_rounds", "always_complete")
	for i, wander := range wanders {
		d := data[i]
		complete := "yes"
		if len(d["incomplete"]) > 0 {
			complete = "NO"
		}
		t.AddRow(stats.F(wander), stats.F(mean(d["struct"])), stats.F(mean(d["slot"])),
			stats.F(mean(d["bcast"])), complete)
	}
	return t, nil
}
