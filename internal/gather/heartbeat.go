package gather

import (
	"sort"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// HeartbeatReport lists, per parent, the children it failed to hear during
// one heartbeat epoch. Under a verified g-slot schedule a live child is
// always heard, so a missing child is dead (or its whole branch is): the
// report contains exactly the topmost crashed nodes, which is what crash
// repair needs.
type HeartbeatReport struct {
	// Missing maps each parent to its unheard children, ascending.
	Missing map[graph.NodeID][]graph.NodeID
	// Rounds is the epoch length executed on the engine.
	Rounds int
}

// Suspects flattens the report into a sorted list of unheard children.
func (r HeartbeatReport) Suspects() []graph.NodeID {
	var out []graph.NodeID
	for _, ms := range r.Missing {
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Heartbeat runs one convergecast epoch purely as liveness probing: every
// node transmits once at its g-slot and every parent records which
// children it heard. Crashed nodes (opts.Failures) stay silent, so their
// parents report them. This is the failure-detection half of crash repair;
// pair it with core.Network.RepairCrash.
func Heartbeat(net *cnet.CNet, sched *Schedule, opts Options) (HeartbeatReport, error) {
	progs, schedLen, _ := buildPrograms(net, sched, nil)
	eng, err := radio.NewEngine(net.Graph(), progs)
	if err != nil {
		return HeartbeatReport{}, err
	}
	eng.SetWorkers(opts.Workers)
	eng.SetPerf(opts.Perf)
	eng.SetTraceBatch(opts.Trace)
	for _, f := range opts.Failures {
		eng.FailNodeAt(f.Node, f.Round)
	}
	res := eng.Run(schedLen)

	report := HeartbeatReport{Missing: make(map[graph.NodeID][]graph.NodeID), Rounds: res.Rounds}
	dead := make(map[graph.NodeID]bool, len(opts.Failures))
	for _, f := range opts.Failures {
		dead[f.Node] = true
	}
	for _, id := range net.Tree().Nodes() {
		gn := progs[id].(*gatherNode)
		if dead[id] {
			// A dead parent reports nothing; its own parent reports it.
			continue
		}
		var missing []graph.NodeID
		for c := range gn.children {
			if !gn.heardFrom[c] {
				missing = append(missing, c)
			}
		}
		if len(missing) > 0 {
			sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
			report.Missing[id] = missing
		}
	}
	return report, nil
}
