package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dynsens/internal/radio"
)

// layers are the modules whose failures the traced run counts.
var layers = []string{"workload", "geom", "cnet", "timeslot", "multicast", "broadcast",
	"radio", "flight", "netio", "dist", "core"}

// layerRun holds the counter readings taken when the traced phase starts.
type layerRun struct {
	ops        int
	nodeRounds int64
	awake      int64
	kernel     radio.PerfSnapshot
	mem        runtime.MemStats
}

func startLayerRun(l *loop, c *counters) *layerRun {
	lr := &layerRun{ops: len(l.lat), nodeRounds: l.nodeRounds, awake: l.awake, kernel: c.kernel.Snapshot()}
	*c = counters{kernel: c.kernel}
	runtime.ReadMemStats(&lr.mem)
	return lr
}

// finish computes every per-layer metric from the traced phase: span self
// times per call, kernel phases per kernel run, counts, runtime figures per
// op, and the tracing overhead against the untraced ops/s.
func (lr *layerRun) finish(tr *tracer, l *loop, c *counters, untracedOpsPerS float64, el time.Duration) ([]metric, []string) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ops := len(l.lat) - lr.ops
	setup, timed := aggregate(tr.spans)
	k := kernelDelta(lr.kernel, c.kernel.Snapshot())

	perCall := func(name string, scale float64) float64 {
		lt := timed[name]
		if lt.calls == 0 {
			return 0
		}
		return float64(lt.selfNs) / float64(lt.calls) / scale
	}
	per := func(v int64, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(v) / float64(calls)
	}
	ms, us := 1e6, 1e3
	phase := func(name string) float64 { return per(k.PhaseNs(name), int(k.Runs)) / ms }
	churnCalls := timed["core.join"].calls + timed["core.leave"].calls
	awakeRatio := 0.0
	if nr := l.nodeRounds - lr.nodeRounds; nr > 0 {
		awakeRatio = float64(l.awake-lr.awake) / float64(nr)
	}
	churnTrace := setup["workload.churn_trace"]
	tracedOpsPerS := float64(ops) / el.Seconds()

	out := []metric{
		{"workload.deploy.self_ms", perCall("workload.deploy", ms), "ms", timed["workload.deploy"].calls},
		{"geom.udg.self_ms", perCall("geom.udg", ms), "ms", timed["geom.udg"].calls},
		{"cnet.build.self_ms", perCall("cnet.build", ms), "ms", timed["cnet.build"].calls},
		{"cnet.build.allocs", per(c.buildAllocs, timed["cnet.build"].calls), "count", timed["cnet.build"].calls},
		{"timeslot.assign.self_ms", perCall("timeslot.assign", ms), "ms", timed["timeslot.assign"].calls},
		{"cnet.move_in.self_us", perCall("cnet.move_in", us), "us", timed["cnet.move_in"].calls},
		{"cnet.move_out.self_us", perCall("cnet.move_out", us), "us", timed["cnet.move_out"].calls},
		{"cnet.move_out.reinserted", per(c.reinserted, timed["cnet.move_out"].calls), "count", timed["cnet.move_out"].calls},
		{"timeslot.on_join.self_us", perCall("timeslot.on_join", us), "us", timed["timeslot.on_join"].calls},
		{"timeslot.on_move_out.self_us", perCall("timeslot.on_move_out", us), "us", timed["timeslot.on_move_out"].calls},
		{"timeslot.recalcs", per(c.recalcs, churnCalls), "count", churnCalls},
		{"core.join.self_us", perCall("core.join", us), "us", timed["core.join"].calls},
		{"core.leave.self_us", perCall("core.leave", us), "us", timed["core.leave"].calls},
		{"broadcast.plan.icff.self_ms", perCall("broadcast.plan.icff", ms), "ms", timed["broadcast.plan.icff"].calls},
		{"broadcast.plan.cff.self_ms", perCall("broadcast.plan.cff", ms), "ms", timed["broadcast.plan.cff"].calls},
		{"broadcast.plan.dfo.self_ms", perCall("broadcast.plan.dfo", ms), "ms", timed["broadcast.plan.dfo"].calls},
		{"multicast.plan.self_ms", perCall("multicast.plan", ms), "ms", timed["multicast.plan"].calls},
		{"broadcast.run.self_ms", perCall("broadcast.run", ms), "ms", timed["broadcast.run"].calls},
		{"radio.act_ms", phase("act"), "ms", int(k.Runs)},
		{"radio.resolve_ms", phase("resolve"), "ms", int(k.Runs)},
		{"radio.deliver_ms", phase("deliver"), "ms", int(k.Runs)},
		{"radio.stitch_ms", phase("seq-stitch"), "ms", int(k.Runs)},
		{"radio.barrier_wait_ms", phase("barrier-wait"), "ms", int(k.Runs)},
		{"radio.rounds", per(k.Rounds, int(k.Runs)), "count", int(k.Runs)},
		{"radio.events", per(k.Events, int(k.Runs)), "count", int(k.Runs)},
		{"radio.shard_imbalance", imbalance(k), "ratio", int(k.Runs)},
		{"radio.awake_ratio", awakeRatio, "ratio", ops},
		{"netio.record_topology.self_ms", perCall("netio.record_topology", ms), "ms", timed["netio.record_topology"].calls},
		{"flight.close.self_ms", perCall("flight.close", ms), "ms", timed["flight.close"].calls},
		{"flight.bytes", per(c.flightBytes, timed["flight.close"].calls), "bytes", timed["flight.close"].calls},
		{"flight.decode.self_ms", perCall("flight.decode", ms), "ms", timed["flight.decode"].calls},
		{"flight.verify.self_ms", perCall("flight.verify", ms), "ms", timed["flight.verify"].calls},
		{"dist.run.self_ms", perCall("dist.run", ms), "ms", timed["dist.run"].calls},
		{"dist.round_us", per(timed["dist.run"].selfNs, int(c.distRounds)) / us, "us", int(c.distRounds)},
		{"dist.kernel_check.self_ms", perCall("dist.kernel_check", ms), "ms", timed["dist.kernel_check"].calls},
		{"workload.churn_trace.self_ms", per(churnTrace.selfNs, churnTrace.calls) / ms, "ms", churnTrace.calls},
		{"runtime.gc_cycles", per(int64(mem.NumGC-lr.mem.NumGC), ops), "count", ops},
		{"runtime.gc_pause_ms", per(int64(mem.PauseTotalNs-lr.mem.PauseTotalNs), ops) / ms, "ms", ops},
		{"runtime.alloc_mb", per(int64(mem.TotalAlloc-lr.mem.TotalAlloc), ops) / (1 << 20), "MB", ops},
	}
	for _, layer := range layers {
		out = append(out, metric{layer + ".errors", float64(l.tally.byLayer[layer]), "count", l.tally.attempted})
	}
	overhead := 0.0
	if untracedOpsPerS > 0 {
		overhead = (untracedOpsPerS - tracedOpsPerS) / untracedOpsPerS * 100
	}
	out = append(out, metric{"trace.overhead_pct", overhead, "%", ops})
	return out, shares(tr, timed, l.lat[lr.ops:], untracedOpsPerS, tracedOpsPerS)
}

// kernelDelta is the kernel work done between two snapshots.
func kernelDelta(a, b radio.PerfSnapshot) radio.PerfSnapshot {
	d := radio.PerfSnapshot{Runs: b.Runs - a.Runs, Rounds: b.Rounds - a.Rounds,
		Events: b.Events - a.Events, WallNs: b.WallNs - a.WallNs}
	for i, ph := range b.Phases {
		d.Phases = append(d.Phases, radio.PhaseTime{Name: ph.Name, Ns: ph.Ns - a.Phases[i].Ns})
	}
	for i, ns := range b.ShardBusyNs {
		if i < len(a.ShardBusyNs) {
			ns -= a.ShardBusyNs[i]
		}
		d.ShardBusyNs = append(d.ShardBusyNs, ns)
	}
	return d
}

// imbalance is the shard imbalance of the kernel runs, 0 when none ran.
func imbalance(k radio.PerfSnapshot) float64 {
	if k.Runs == 0 {
		return 0
	}
	return k.Imbalance()
}

// shares renders each span name's self time per traced op and its share
// of op time, largest first, with the op time no span covers.
func shares(tr *tracer, timed map[string]layerTime, lat []float64, untraced, traced float64) []string {
	var opNs float64
	for _, ms := range lat {
		opNs += ms * 1e6
	}
	names := make([]string, 0, len(timed))
	var spanned int64
	for name, lt := range timed {
		names = append(names, name)
		spanned += lt.selfNs
	}
	sort.Slice(names, func(a, b int) bool {
		if timed[names[a]].selfNs != timed[names[b]].selfNs {
			return timed[names[a]].selfNs > timed[names[b]].selfNs
		}
		return names[a] < names[b]
	})
	ops := float64(max(1, len(lat)))
	out := []string{
		fmt.Sprintf("traced phase: %d ops, %.2f ops/s traced vs %.2f untraced, %d spans kept", len(lat), traced, untraced, len(tr.spans)),
		fmt.Sprintf("%-32s %8s %12s %8s", "span (self time)", "calls", "ms per op", "share"),
	}
	row := func(name string, calls int, ns float64) {
		out = append(out, fmt.Sprintf("%-32s %8d %12.4f %7.2f%%", name, calls, ns/ops/1e6, 100*ns/max(1, opNs)))
	}
	for _, name := range names {
		row(name, timed[name].calls, float64(timed[name].selfNs))
	}
	row("(outside any span)", len(lat), opNs-float64(spanned))
	return out
}
