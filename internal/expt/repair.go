package expt

import (
	"fmt"
	"sort"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/gather"
	"dynsens/internal/graph"
	"dynsens/internal/stats"
)

// Repair measures the full crash-recovery loop the paper's robustness
// story implies but does not spell out: a fraction of nodes crash
// silently, one heartbeat epoch (a convergecast liveness probe) detects
// the topmost dead nodes at their parents, crash repair detaches them and
// re-attaches reachable orphans, and a broadcast verifies the repaired
// network. Rows sweep the crash fraction.
func Repair(p Params, fracs []float64) (*stats.Table, error) {
	if len(fracs) == 0 {
		fracs = []float64{0.02, 0.05, 0.1}
	}
	n := p.Sizes[len(p.Sizes)-1]
	t := stats.NewTable(fmt.Sprintf("Crash detection and repair (n=%d)", n),
		"crash_frac", "detected_topmost", "reattached", "dropped", "post_delivery", "hb_rounds")
	for _, frac := range fracs {
		var detected, reattached, dropped, delivery, hbRounds []float64
		for _, seed := range p.seeds() {
			net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
			if err != nil {
				return nil, err
			}
			rng := p.rng(seed * 41)
			deadSet := make(map[graph.NodeID]bool)
			for _, id := range net.CNet().Tree().Nodes() {
				if id != net.Root() && rng.Float64() < frac {
					deadSet[id] = true
				}
			}
			if len(deadSet) == 0 {
				deadSet[net.CNet().Tree().Nodes()[1]] = true
			}
			// Sorted: the repair replays the dead in this order, so map
			// iteration must not decide it.
			var dead []graph.NodeID
			for id := range deadSet {
				dead = append(dead, id)
			}
			sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
			fails := make([]gather.Failure, 0, len(dead))
			for _, id := range dead {
				fails = append(fails, gather.Failure{Node: id, Round: 1})
			}

			// Detection epoch.
			sched := gather.NewSchedule(net.CNet())
			if err := sched.Verify(); err != nil {
				return nil, err
			}
			rep, err := gather.Heartbeat(net.CNet(), sched, gather.Options{Failures: fails})
			if err != nil {
				return nil, err
			}
			// Every suspect must really be dead (no false accusations).
			for _, s := range rep.Suspects() {
				if !deadSet[s] {
					return nil, fmt.Errorf("expt: heartbeat falsely accused %d", s)
				}
			}
			detected = append(detected, float64(len(rep.Suspects())))
			hbRounds = append(hbRounds, float64(rep.Rounds))

			// Repair with the full dead set (descendants of suspects are
			// learned when re-attachment is attempted).
			rec, err := net.RepairCrash(dead)
			if err != nil {
				return nil, err
			}
			reattached = append(reattached, float64(len(rec.Reinserted)))
			dropped = append(dropped, float64(len(rec.Dropped)))
			if err := net.Verify(); err != nil {
				return nil, fmt.Errorf("expt: invariants after repair: %w", err)
			}
			m, err := net.Broadcast(net.Root(), broadcast.Options{})
			if err != nil {
				return nil, err
			}
			delivery = append(delivery, m.DeliveryRatio())
		}
		t.AddRow(fmt.Sprintf("%.2f", frac), stats.F(mean(detected)),
			stats.F(mean(reattached)), stats.F(mean(dropped)),
			fmt.Sprintf("%.3f", mean(delivery)), stats.F(mean(hbRounds)))
	}
	return t, nil
}
