package radio

// Kernel performance introspection.
//
// Perf is a strictly read-only observer of the three-phase kernel: it
// accumulates where wall-clock time goes (per phase, per shard) and how
// much work flows through (rounds, events), and it never feeds anything
// back into the simulation. The hard invariant — enforced by
// TestPerfDoesNotPerturb in internal/broadcast — is that a run with a Perf
// attached produces byte-identical traces, results and flight recordings
// to the same run without one, at every worker count:
//
//   - timers live outside the //dynlint:shardsafe phase bodies: phase wall
//     times are taken on the Run goroutine around each phase dispatch, and
//     per-shard busy times in the worker loop around runPhase, so the
//     annotated act/resolve/deliverAndDone functions stay clean of
//     trace/obs/RNG/Seq effects;
//   - every accumulator is either goroutine-local during the run (shard
//     busy ns in the shard struct, phase ns on the Run goroutine) or
//     folded with atomic adds at run end, so one Perf can be shared by
//     concurrent engines (the experiment harness does);
//   - reading the monotonic clock is the single sanctioned wall-clock use
//     in this package (see nanotime below); clock readings are never
//     compared against simulation state.
//
// The obs side — rolling a PerfSnapshot up into registry metrics, the
// human-readable summary table, and the background runtime sampler —
// lives in internal/obs/perf, keeping this package free of obs imports
// (the kernel phases must stay shardsafe-clean, and radio never imports
// the observability layer).

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// perfEpoch anchors the monotonic clock: nanotime readings are durations
// since process-start-ish, compared only against each other.
//
//lint:ignore dynlint/nondeterminism perf timers measure real elapsed time by design; readings only ever feed perf accumulators, never simulation state
var perfEpoch = time.Now()

// nanotime returns monotonic nanoseconds since perfEpoch. time.Since uses
// the monotonic clock reading captured in perfEpoch, so the difference of
// two nanotime calls is immune to wall-clock steps.
func nanotime() int64 { return int64(time.Since(perfEpoch)) }

// perfMaxShards bounds the per-shard busy-time accumulators. Worker counts
// live well below this (effectiveWorkers defaults to GOMAXPROCS); an
// explicit Config.Workers beyond it folds the excess shards into the last
// slot rather than dropping them.
const perfMaxShards = 256

// Phase indices of the kernel timers. act/resolve/deliver are the three
// parallel phases; seq-stitch covers the serial sections between them
// (prefix sums, bitset build, trace/obs/flight sinks, failure emission and
// quiescence checks); barrier-wait is the Run goroutine's time blocked on
// the phase barrier, a subset of the three phase walls.
const (
	perfAct = iota
	perfResolve
	perfDeliver
	perfStitch
	perfBarrier
	numPerfPhases
)

// perfPhaseNames are the phase labels, indexed by the perf* constants.
// They appear in snapshots, obs metrics and pprof labels.
var perfPhaseNames = [numPerfPhases]string{"act", "resolve", "deliver", "seq-stitch", "barrier-wait"}

// Perf accumulates kernel performance measurements across one or more
// engine runs. All methods are safe for concurrent use; one Perf may be
// attached to several engines at once (each run folds its goroutine-local
// accumulators in with atomic adds when it finishes). The zero value is
// ready to use.
type Perf struct {
	runs    atomic.Int64
	rounds  atomic.Int64
	events  atomic.Int64
	wallNs  atomic.Int64
	phaseNs [numPerfPhases]atomic.Int64
	shardNs [perfMaxShards]atomic.Int64
	shards  atomic.Int64 // max shard count folded in so far
}

// NewPerf returns an empty collector, ready to attach as Config.Perf.
func NewPerf() *Perf { return &Perf{} }

// PhaseTime is one named phase timer in a snapshot.
type PhaseTime struct {
	// Name is the phase label: act, resolve, deliver, seq-stitch or
	// barrier-wait.
	Name string
	// Ns is the accumulated wall-clock nanoseconds.
	Ns int64
}

// PerfSnapshot is a point-in-time copy of a Perf. Snapshots taken after
// every attached engine has returned are exact; concurrent snapshots are
// merely self-consistent per accumulator.
type PerfSnapshot struct {
	// Runs is the number of engine runs folded in.
	Runs int64
	// Rounds is the total rounds executed across those runs.
	Rounds int64
	// Events is the total trace-event volume (transmit + rx-phase events,
	// counted whether or not a trace hook was installed).
	Events int64
	// WallNs is the total wall-clock time spent inside Engine.Run.
	WallNs int64
	// Phases holds the per-phase wall-clock accumulators in kernel order:
	// act, resolve, deliver, seq-stitch, barrier-wait. The three phase
	// walls are measured on the Run goroutine around each dispatch and so
	// include barrier-wait, which is also reported separately to expose
	// idle waiting; seq-stitch covers the serial sections between phases.
	Phases []PhaseTime
	// ShardBusyNs is each shard worker's accumulated busy time (time spent
	// actually executing phase bodies), indexed by shard. Length is the
	// largest worker count any folded run used.
	ShardBusyNs []int64
}

// Snapshot copies the current accumulator values.
func (p *Perf) Snapshot() PerfSnapshot {
	s := PerfSnapshot{
		Runs:   p.runs.Load(),
		Rounds: p.rounds.Load(),
		Events: p.events.Load(),
		WallNs: p.wallNs.Load(),
		Phases: make([]PhaseTime, numPerfPhases),
	}
	for i := range s.Phases {
		s.Phases[i] = PhaseTime{Name: perfPhaseNames[i], Ns: p.phaseNs[i].Load()}
	}
	n := int(p.shards.Load())
	if n > perfMaxShards {
		n = perfMaxShards
	}
	s.ShardBusyNs = make([]int64, n)
	for i := 0; i < n; i++ {
		s.ShardBusyNs[i] = p.shardNs[i].Load()
	}
	return s
}

// PhaseNs returns the accumulated nanoseconds of the named phase (one of
// act, resolve, deliver, seq-stitch, barrier-wait), or 0 for an unknown
// name.
func (s PerfSnapshot) PhaseNs(name string) int64 {
	for _, ph := range s.Phases {
		if ph.Name == name {
			return ph.Ns
		}
	}
	return 0
}

// Imbalance is the load-imbalance gauge: max over mean of the per-shard
// busy times. 1.0 means perfectly balanced shards; k means the slowest
// shard carried k times the average load (its excess is pure barrier wait
// for everyone else). Runs with fewer than two shards report 1.0, and so
// does an all-idle snapshot.
func (s PerfSnapshot) Imbalance() float64 {
	if len(s.ShardBusyNs) < 2 {
		return 1
	}
	var sum, max int64
	for _, ns := range s.ShardBusyNs {
		sum += ns
		if ns > max {
			max = ns
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.ShardBusyNs))
	return float64(max) / mean
}

// EventsPerRound is the mean event throughput per executed round (0 for
// an empty snapshot).
func (s PerfSnapshot) EventsPerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.Events) / float64(s.Rounds)
}

// flushPerf folds the kernel's goroutine-local accumulators into the
// shared collector. Called once per run (deferred from kernel.run) on the
// Run goroutine; the final phase barrier's happens-before edge makes every
// shard's busyNs visible here.
func (k *kernel) flushPerf() {
	p := k.e.cfg.Perf
	p.runs.Add(1)
	p.rounds.Add(int64(k.roundsDone))
	p.events.Add(int64(k.e.seq - k.perfSeq0))
	p.wallNs.Add(nanotime() - k.perfStart)
	for i := range k.perfPhaseNs {
		p.phaseNs[i].Add(k.perfPhaseNs[i])
	}
	ns := len(k.shards)
	if ns > perfMaxShards {
		ns = perfMaxShards
	}
	for {
		cur := p.shards.Load()
		if int64(ns) <= cur || p.shards.CompareAndSwap(cur, int64(ns)) {
			break
		}
	}
	for s := range k.shards {
		slot := s
		if slot >= perfMaxShards {
			slot = perfMaxShards - 1
		}
		p.shardNs[slot].Add(k.shards[s].busyNs)
	}
}

// workerLabels precomputes one pprof label set per parallel phase for shard
// s, indexed by phaseOp. Applying a precomputed context is a cheap pointer
// swap in the scheduler, so labeling costs nothing on the per-phase path.
// CPU profiles taken during a perf run then attribute worker samples to
// kernel_phase ∈ {act, resolve, deliver} and kernel_shard = s. The inline
// single-shard path shares the Run goroutine and is left unlabeled (its
// samples show up under Engine.Run directly).
func workerLabels(s int) [3]context.Context {
	shard := strconv.Itoa(s)
	var out [3]context.Context
	for op := 0; op < 3; op++ {
		out[op] = pprof.WithLabels(context.Background(),
			pprof.Labels("kernel_phase", perfPhaseNames[op], "kernel_shard", shard))
	}
	return out
}

// setWorkerLabels applies a precomputed label set to the calling goroutine.
func setWorkerLabels(ctx context.Context) { pprof.SetGoroutineLabels(ctx) }

// clearWorkerLabels restores the unlabeled state before a worker exits.
func clearWorkerLabels() { pprof.SetGoroutineLabels(context.Background()) }

// perfClock measures consecutive segments of the Run goroutine's round
// loop. All methods are no-ops when disabled, so the uninstrumented run
// pays two predictable branches per segment and no clock reads.
type perfClock struct {
	on   bool
	last int64
}

// start begins a segment.
func (c *perfClock) start() {
	if c.on {
		c.last = nanotime()
	}
}

// lap ends the current segment into acc and starts the next one.
func (c *perfClock) lap(acc *int64) {
	if !c.on {
		return
	}
	now := nanotime()
	*acc += now - c.last
	c.last = now
}
