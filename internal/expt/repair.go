package expt

import (
	"fmt"
	"math/rand"
	"sort"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/gather"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
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
	data, err := sweep(p, fracs, func(frac float64, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed * 41))
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
		cfg := p.engine()
		for _, id := range dead {
			cfg.Failures = append(cfg.Failures, radio.NodeFailure{Node: id, Round: 1})
		}

		// Detection epoch.
		sched := gather.NewSchedule(net.CNet())
		if err := sched.Verify(); err != nil {
			return err
		}
		rep, err := gather.Heartbeat(net.CNet(), sched, cfg)
		if err != nil {
			return err
		}
		// Every suspect must really be dead (no false accusations).
		for _, sus := range rep.Suspects() {
			if !deadSet[sus] {
				return fmt.Errorf("expt: heartbeat falsely accused %d", sus)
			}
		}
		s.add("detected", float64(len(rep.Suspects())))
		s.add("hb_rounds", float64(rep.Rounds))

		// Repair with the full dead set (descendants of suspects are
		// learned when re-attachment is attempted).
		rec, err := net.RepairCrash(dead)
		if err != nil {
			return err
		}
		s.add("reattached", float64(len(rec.Reinserted)))
		s.add("dropped", float64(len(rec.Dropped)))
		if err := net.Verify(); err != nil {
			return fmt.Errorf("expt: invariants after repair: %w", err)
		}
		m, err := net.Broadcast(net.Root(), broadcast.Options{Config: p.engine()})
		if err != nil {
			return err
		}
		s.add("delivery", m.DeliveryRatio())
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Crash detection and repair (n=%d)", n),
		"crash_frac", "detected_topmost", "reattached", "dropped", "post_delivery", "hb_rounds")
	for i, frac := range fracs {
		d := data[i]
		t.AddRow(fmt.Sprintf("%.2f", frac), stats.F(mean(d["detected"])),
			stats.F(mean(d["reattached"])), stats.F(mean(d["dropped"])),
			fmt.Sprintf("%.3f", mean(d["delivery"])), stats.F(mean(d["hb_rounds"])))
	}
	return t, nil
}
