package radio

import (
	"math/bits"
	"runtime"
	"sync"

	"dynsens/internal/graph"
	"dynsens/internal/radio/rounds"
)

// The three-phase kernel.
//
// Run restructures the reference loop (RunReference) into explicit phases
// per round:
//
//	act     — collect each live node's Action through the NodeHost (host.go);
//	          node-local, fans out over ID-range shards.
//	resolve — per listener, enumerate candidate frames from its *neighbors*
//	          (word-wise against per-channel transmitter bitsets, or via the
//	          dense index-space adjacency), draw that listener's loss coins
//	          from its own counter stream, and stage rx events in the
//	          shard's buffer; node-local, fans out over the same shards.
//	deliver — stamp the staged events' Seq numbers from precomputed
//	          per-shard bases, then let the NodeHost hand receptions to the
//	          shard's nodes and re-read Done; node-local, fans out again.
//
// The kernel is the one round loop: whether the nodes are in-process
// Programs or remote actors behind internal/dist's frame barriers only
// changes the NodeHost, never the round semantics.
//
// Determinism by construction: loss coins come from splitmix64 counter
// streams keyed (LossSeed, listener, round) — see rng.go — so any shard can
// draw any of its listeners' coins with zero cross-shard ordering
// dependency; no phase touches a shared RNG. Event.Seq is stamped by an
// ordered stitch: short serial steps between phases prefix-sum the
// per-shard event counts into per-shard bases (transmit events of every
// shard precede rx-phase events of every shard, matching the reference
// loop's emission order), and the next parallel phase renumbers each
// shard's buffer from its base. Because shards are contiguous ascending ID
// ranges filled in ascending node order, concatenating the buffers in shard
// order reproduces the reference event stream exactly — same order, same
// Seq — and the serial steps hand each stamped buffer to the trace hooks on
// the Run goroutine. Traces, obs counters and flight recordings come out
// byte-identical at any worker count.
//
// Quiescence is a live/not-done counter maintained from Done transitions
// and scheduled deaths instead of an O(n) rescan per round. All per-round
// state lives in reusable per-shard scratch, phases are dispatched to a
// persistent worker pool over buffered channels, and untraced runs skip
// materializing Event values entirely (counters and the Seq cursor still
// advance identically), so a steady-state round allocates nothing.

// minParallelNodes is the graph size below which the default worker count
// stays at 1 (phases run inline on the Run goroutine): shard bookkeeping
// costs more than it saves on small graphs, and the paper's own sweep sizes
// (≤ 720 nodes) are well inside that regime. An explicit Config.Workers
// overrides the heuristic — the equivalence tests use that to force
// multi-shard execution on tiny graphs.
const minParallelNodes = 1024

// maxBitsetChannels bounds the per-channel transmitter bitset table.
// Channels outside [0, maxBitsetChannels) — legal, just unindexed — fall
// back to the action-walk candidate path. The protocols in this repo use
// single-digit channel numbers; 1024 costs one slice header each.
const maxBitsetChannels = 1024

// denseRowsMaxBytes caps the memory spent on full per-node neighbor bitset
// rows (n² bits). Past this the bit-test walk over txBits still gives the
// cache win without the quadratic footprint.
const denseRowsMaxBytes = 256 << 20

// effectiveWorkers resolves Config.Workers for an n-node run.
func (e *Engine) effectiveWorkers(n int) int {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if n < minParallelNodes {
			w = 1
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shard is one contiguous ascending range [lo, hi) of node indices plus the
// scratch its worker fills each round. Buffers are truncated, never freed,
// so steady-state rounds are allocation-free.
type shard struct {
	lo, hi int

	txIdx []int32    // this round's transmitter indices, ascending
	evAct []Event    // EvTransmit events, ascending node order (traced runs only)
	evRx  []Event    // rx-phase events: per listener losses then outcome (traced runs only)
	cand  []int32    // per-listener candidate scratch, reset for each listener
	lost  []int32    // per-listener lost-candidate scratch (rounds.Resolve output)
	deliv []Delivery // successful receptions, ascending listener order

	// crashed lists the node indices the host reported crashed this round;
	// the serial stitch folds them into the failure schedule.
	crashed []int32

	// batch is the shard's NodeHost view, reused every round.
	batch Batch

	// st is the current listener's loss-coin stream, kept in the shard so
	// taking its address for rounds.Resolve never escapes to the heap.
	st rounds.LossStream

	// busyNs accumulates wall-clock time spent inside this shard's phase
	// bodies (perf runs only). Written by the shard's worker goroutine
	// between barriers, read by flushPerf after the final barrier.
	busyNs int64

	// Event tallies for the round; when traced, nRx == len(evRx).
	nRx, nLoss, nDel, nCol int

	// actBase/rxBase are the Seq values just before this shard's first
	// transmit / rx-phase event, prefix-summed by the serial stitch steps;
	// the next parallel phase renumbers the buffers from them.
	actBase, rxBase uint64

	// newlyDone counts Done false→true transitions seen this round.
	newlyDone int
}

// phaseOp selects which shard phase a pool worker runs.
type phaseOp int

const (
	opAct phaseOp = iota
	opResolve
	opDeliver
)

// phaseReq is one round-barrier message to a pool worker: run op for round.
// Sent by value on a buffered channel so phase dispatch allocates nothing.
type phaseReq struct {
	op    phaseOp
	round int
}

// kernel is the per-Run state of the three-phase engine: dense node
// indexing, precomputed index-space adjacency, transmitter bitsets, failure
// schedules bucketed by round, the per-shard scratch, and the worker pool.
type kernel struct {
	e      *Engine
	nodes  []graph.NodeID
	idx    map[graph.NodeID]int32
	skews  []int
	nbrs   [][]int32 // index-space adjacency, ascending (shares one backing array)
	traced bool      // any trace hook installed; untraced runs skip Event staging

	// txWords is the per-bitset word count, (n+63)/64. txBits[ch] is the
	// round's transmitter bitset for channel ch (bit i set iff node index i
	// transmits on ch this round), allocated lazily per channel and zeroed
	// between rounds via the chUsed/chDirty ledger. denseRows, when
	// non-nil, is a flat n×txWords neighbor-row matrix for word-wise
	// row∩txBits intersection on very dense graphs.
	txWords   int
	txBits    [][]uint64
	chUsed    []Channel
	chDirty   []bool
	denseRows []uint64

	// deadAt is the round the node dies (alive during round r iff
	// r < deadAt); neverDies for unscheduled nodes.
	deadAt []int
	// doneF caches each program's last Done() value; valid because Done is
	// pure and monotone (Program contract).
	doneF []bool
	// notDone counts nodes that are alive and not done — the quiescence
	// counter replacing the reference loop's per-round rescan.
	notDone int

	// sched buckets the failure schedules by round, sorted within each
	// round, so a round with no failures costs one map lookup instead of a
	// rescan of the full sorted schedule; host-reported crashes join it at
	// run time.
	sched *rounds.Schedule

	actions                   []Action // this round's action per node index
	awake, listens, transmits []int    // per-node counters, owned by the node's shard

	shards []shard

	// Worker pool: one goroutine per shard, fed phaseReq values over its
	// own buffered channel and joined through wg — a persistent round
	// barrier instead of per-round goroutine spawns. reqs is nil when the
	// kernel runs single-shard inline.
	reqs []chan phaseReq
	wg   sync.WaitGroup

	// Perf instrumentation (see perf.go). perfOn gates every clock read so
	// uninstrumented runs pay only predictable branches; the accumulators
	// are goroutine-local until flushPerf folds them into e.cfg.Perf.
	perfOn      bool
	perfStart   int64 // nanotime at run start
	perfSeq0    uint64
	perfPhaseNs [numPerfPhases]int64
	roundsDone  int
}

const neverDies = int(^uint(0) >> 1)

// Run executes up to maxRounds rounds (1-based round numbers) and returns
// the observed result, stopping early once every live program is Done. It
// is the three-phase shard-parallel kernel; its Result, trace event stream
// (including Event.Seq), obs counters and flight recordings are
// byte-identical to RunReference for any Program set honoring the Program
// contract, at any Config.Workers value.
func (e *Engine) Run(maxRounds int) Result {
	return e.newKernel().run(maxRounds)
}

func (e *Engine) newKernel() *kernel {
	nodes := e.g.Nodes()
	n := len(nodes)
	k := &kernel{
		e:         e,
		nodes:     nodes,
		idx:       make(map[graph.NodeID]int32, n),
		skews:     make([]int, n),
		deadAt:    make([]int, n),
		doneF:     make([]bool, n),
		actions:   make([]Action, n),
		awake:     make([]int, n),
		listens:   make([]int, n),
		transmits: make([]int, n),
		traced:    e.cfg.TraceBatch != nil,
		perfOn:    e.cfg.Perf != nil,
	}
	for i, id := range nodes {
		k.idx[id] = int32(i)
		k.skews[i] = e.cfg.Skew[id]
		k.deadAt[i] = neverDies
	}

	// Translate the cached adjacency into dense index space once, so the
	// resolve phase does no map lookups and never touches the graph's lazy
	// caches from worker goroutines. One flat backing array holds all rows.
	e.g.WarmAdjacency()
	flat := make([]int32, 0, 2*e.g.NumEdges())
	k.nbrs = make([][]int32, n)
	maxDeg := 0
	for i, id := range nodes {
		start := len(flat)
		for _, v := range e.g.Neighbors(id) {
			flat = append(flat, k.idx[v])
		}
		k.nbrs[i] = flat[start:len(flat):len(flat)]
		if d := len(k.nbrs[i]); d > maxDeg {
			maxDeg = d
		}
	}

	// Transmitter bitsets (resolve's fast candidate paths). Full neighbor
	// rows only pay when some listener's degree reaches the per-row word
	// count — below that the bit-test walk over its neighbor list touches
	// fewer words — and when the n×n/64-byte matrix stays affordable.
	k.txWords = (n + 63) / 64
	k.txBits = make([][]uint64, maxBitsetChannels)
	k.chDirty = make([]bool, maxBitsetChannels)
	if maxDeg >= k.txWords && n*k.txWords*8 <= denseRowsMaxBytes {
		k.denseRows = make([]uint64, n*k.txWords)
		for i := range k.nbrs {
			row := k.denseRows[i*k.txWords : (i+1)*k.txWords]
			for _, j := range k.nbrs[i] {
				row[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}

	// Bucket the failure schedules by round (satellite bugfix: the
	// reference loop rescans the full sorted schedules every round). The
	// shared rounds.Schedule sorts each bucket, so every bucket inherits
	// the deterministic emission order.
	k.sched = rounds.NewSchedule(e.nodeFail, e.linkFail)
	for id := range e.nodeFail {
		if i, ok := k.idx[id]; ok {
			k.deadAt[i] = e.nodeFail[id]
		}
	}

	// Seed the quiescence counter: nodes dead before round 1 never count;
	// everyone else counts until the host reports them Done.
	e.host.Start(nodes, k.doneF)
	for i := range k.doneF {
		if !k.doneF[i] && k.deadAt[i] >= 1 {
			k.notDone++
		}
	}

	w := e.effectiveWorkers(n)
	k.shards = make([]shard, w)
	for s := 0; s < w; s++ {
		sh := &k.shards[s]
		sh.lo, sh.hi = s*n/w, (s+1)*n/w
		sh.batch = Batch{k: k, sh: sh}
	}
	return k
}

// startPool launches one persistent goroutine per shard; each consumes
// phaseReq barriers from its own buffered channel until stopPool closes it.
func (k *kernel) startPool() {
	k.reqs = make([]chan phaseReq, len(k.shards))
	for s := range k.shards {
		k.reqs[s] = make(chan phaseReq, 1)
		go k.worker(s)
	}
}

func (k *kernel) stopPool() {
	for s := range k.reqs {
		close(k.reqs[s])
	}
}

func (k *kernel) worker(s int) {
	sh := &k.shards[s]
	if !k.perfOn {
		for req := range k.reqs[s] {
			k.runPhase(sh, req.op, req.round)
			k.wg.Done()
		}
		return
	}
	// Perf runs: label the goroutine per (shard, phase) so CPU profiles
	// attribute samples to kernel phases, and accumulate shard busy time
	// around each phase body. Labels are precomputed contexts — applying
	// one is a pointer swap, not an allocation.
	labels := workerLabels(s)
	defer clearWorkerLabels()
	for req := range k.reqs[s] {
		setWorkerLabels(labels[req.op])
		t0 := nanotime()
		k.runPhase(sh, req.op, req.round)
		sh.busyNs += nanotime() - t0
		k.wg.Done()
	}
}

func (k *kernel) runPhase(sh *shard, op phaseOp, round int) {
	switch op {
	case opAct:
		k.act(sh, round)
	case opResolve:
		k.resolve(sh, round)
	case opDeliver:
		k.deliverAndDone(sh, round)
	}
}

// phase runs op over every shard — inline for one shard, on the pool
// otherwise. The channel sends and the WaitGroup give every phase boundary
// a happens-before edge in each direction, which is what lets workers read
// the full actions slice (and the serial steps' prefix-summed bases) during
// later phases and lets the serial steps read all shard scratch.
func (k *kernel) phase(op phaseOp, round int) {
	if k.reqs == nil {
		if k.perfOn {
			t0 := nanotime()
			k.runPhase(&k.shards[0], op, round)
			k.shards[0].busyNs += nanotime() - t0
			return
		}
		k.runPhase(&k.shards[0], op, round)
		return
	}
	k.wg.Add(len(k.shards))
	for s := range k.reqs {
		k.reqs[s] <- phaseReq{op: op, round: round}
	}
	if k.perfOn {
		t0 := nanotime()
		k.wg.Wait()
		k.perfPhaseNs[perfBarrier] += nanotime() - t0
	} else {
		k.wg.Wait()
	}
}

func (k *kernel) run(maxRounds int) Result {
	e := k.e
	if k.perfOn {
		k.perfStart = nanotime()
		k.perfSeq0 = e.seq
		defer k.flushPerf()
	}
	if len(k.shards) > 1 {
		k.startPool()
		defer k.stopPool()
	}
	clk := perfClock{on: k.perfOn}
	res := Result{
		Awake:     make(map[graph.NodeID]int, len(k.nodes)),
		Listens:   make(map[graph.NodeID]int, len(k.nodes)),
		Transmits: make(map[graph.NodeID]int, len(k.nodes)),
	}
	clk.start()
	for round := 1; round <= maxRounds; round++ {
		// Scheduled failures fire first and are traced even if this very
		// round quiesces (reference semantics). A dead node's action slot
		// is zeroed once, here: hosts never Put for it again, and resolve
		// must see it asleep.
		for _, id := range k.sched.NodeFails(round) {
			e.emit(Event{Round: round, Kind: EvNodeFail, Node: id})
			if i, ok := k.idx[id]; ok {
				k.actions[i] = Action{}
				if !k.doneF[i] {
					k.notDone--
				}
			}
		}
		for _, lk := range k.sched.LinkFails(round) {
			e.emit(Event{Round: round, Kind: EvLinkFail, Node: lk.U, Peer: lk.V})
		}
		if k.notDone == 0 {
			res.Rounds = round - 1
			res.Quiesced = true
			clk.lap(&k.perfPhaseNs[perfStitch])
			k.fill(&res)
			return res
		}

		// Act: node-local, sharded. The perfClock laps attribute the Run
		// goroutine's time: each phase dispatch (including its barrier wait,
		// tracked separately inside phase) vs the serial stitch segments.
		clk.lap(&k.perfPhaseNs[perfStitch])
		k.phase(opAct, round)
		clk.lap(&k.perfPhaseNs[perfAct])

		// Serial stitch A: prefix-sum the transmit-event counts into
		// per-shard Seq bases (shard order = ascending node order = the
		// reference emission order), advance the Seq cursor past them, and
		// build this round's transmitter bitsets.
		txTotal := 0
		for s := range k.shards {
			sh := &k.shards[s]
			sh.actBase = e.seq + uint64(txTotal)
			txTotal += len(sh.txIdx)
		}
		e.seq += uint64(txTotal)
		res.Transmissions += txTotal
		k.buildTxBits()

		// Resolve: node-local, sharded; stamps the act buffers, draws each
		// listener's coins in-shard, stages rx events.
		clk.lap(&k.perfPhaseNs[perfStitch])
		k.phase(opResolve, round)
		clk.lap(&k.perfPhaseNs[perfResolve])

		// Serial stitch B: hand the stamped transmit buffers to the trace
		// hooks in shard order, prefix-sum the rx-event counts into bases,
		// and fold the shard tallies into the Result.
		rxTotal := 0
		for s := range k.shards {
			sh := &k.shards[s]
			e.sinkBatch(sh.evAct)
			sh.rxBase = e.seq + uint64(rxTotal)
			rxTotal += sh.nRx
			res.Losses += sh.nLoss
			res.Deliveries += sh.nDel
			res.Collisions += sh.nCol
		}
		e.seq += uint64(rxTotal)

		// Deliver: node-local, sharded; stamps the rx buffers, applies
		// receptions, re-evaluates Done where it could have flipped.
		clk.lap(&k.perfPhaseNs[perfStitch])
		k.phase(opDeliver, round)
		clk.lap(&k.perfPhaseNs[perfDeliver])

		// Serial stitch C: sink the stamped rx buffers, refresh quiescence,
		// and schedule the nodes the host reported crashed to die at the
		// start of the next round.
		for s := range k.shards {
			sh := &k.shards[s]
			e.sinkBatch(sh.evRx)
			k.notDone -= sh.newlyDone
			for _, i := range sh.crashed {
				k.sched.Kill(k.nodes[i], round+1)
				if round+1 < k.deadAt[i] {
					k.deadAt[i] = round + 1
				}
			}
		}
		res.Rounds = round
		k.roundsDone = round
	}
	clk.lap(&k.perfPhaseNs[perfStitch])
	// Deaths scheduled for round maxRounds+1 precede the final quiescence
	// check but fall outside the loop, so they emit no events (reference
	// semantics: nodeAlive(id, maxRounds+1)).
	for _, id := range k.sched.NodeFails(maxRounds + 1) {
		if i, ok := k.idx[id]; ok && !k.doneF[i] {
			k.notDone--
		}
	}
	res.Quiesced = k.notDone == 0
	k.fill(&res)
	return res
}

// stampSeq renumbers one shard's staged events from its prefix-summed base:
// evs[i].Seq = base+1+i. Together with the serial stitch steps this is the
// only sanctioned Event.Seq writer in the parallel phases — the stitch
// guarantees the bases partition the same contiguous Seq range the serial
// merge would have assigned.
//
//dynlint:seqstitch renumbering from prefix-summed bases is the sanctioned parallel Seq write
func stampSeq(evs []Event, base uint64) {
	for i := range evs {
		evs[i].Seq = base + 1 + uint64(i)
	}
}

// buildTxBits zeroes the channels dirtied last round and sets one bit per
// transmitter in its channel's bitset. Runs on the Run goroutine between
// the act and resolve phases; out-of-range channels stay unindexed (their
// listeners take resolve's action-walk path).
func (k *kernel) buildTxBits() {
	for _, ch := range k.chUsed {
		b := k.txBits[ch]
		for w := range b {
			b[w] = 0
		}
		k.chDirty[ch] = false
	}
	k.chUsed = k.chUsed[:0]
	for s := range k.shards {
		sh := &k.shards[s]
		for _, t := range sh.txIdx {
			ch := k.actions[t].Channel
			if ch < 0 || ch >= maxBitsetChannels {
				continue
			}
			b := k.txBits[ch]
			if b == nil {
				b = make([]uint64, k.txWords)
				k.txBits[ch] = b
			}
			if !k.chDirty[ch] {
				k.chDirty[ch] = true
				k.chUsed = append(k.chUsed, ch)
			}
			b[t>>6] |= 1 << (uint(t) & 63)
		}
	}
}

// act is the first shard phase: reset the shard's round scratch and let
// the host collect every live node's action (Batch.Put records transmitter
// indices for the bitset build and, in traced runs, stages transmit events
// for the stitch).
//
//dynlint:shardsafe act runs concurrently per shard
func (k *kernel) act(sh *shard, round int) {
	sh.txIdx = sh.txIdx[:0]
	sh.evAct = sh.evAct[:0]
	sh.crashed = sh.crashed[:0]
	sh.batch.round = round
	k.e.host.Act(&sh.batch)
}

// resolve is the second shard phase: stamp the shard's transmit events from
// their stitched base, then for each listener enumerate candidate
// transmitters in ascending order (one of three paths, all order-identical
// to the reference loop), draw the listener's loss coins from its
// (seed, listener, round) counter stream, and stage rx events and
// deliveries. Coins are in-shard because the streams of distinct listeners
// never interact (rng.go); no cross-shard state is written.
//
//dynlint:shardsafe resolve runs concurrently per shard
//dynlint:hotpath per listener per round
func (k *kernel) resolve(sh *shard, round int) {
	stampSeq(sh.evAct, sh.actBase)
	sh.evRx = sh.evRx[:0]
	sh.deliv = sh.deliv[:0]
	sh.nRx, sh.nLoss, sh.nDel, sh.nCol = 0, 0, 0, 0
	e := k.e
	hasLinkFails := len(e.linkFail) > 0
	lossy := e.cfg.LossRate > 0
	cut := e.parts.Active(round)
	for i := sh.lo; i < sh.hi; i++ {
		a := &k.actions[i]
		if a.Kind != Listen {
			continue
		}
		ch := a.Channel
		id := k.nodes[i]

		// Candidate enumeration. All three paths yield the transmitting
		// live-link neighbors on ch in ascending index order — the coin
		// order the reference loop commits to. Dead nodes carry a zeroed
		// (Sleep) action and no bitset bit, so neighbor enumeration needs
		// no extra liveness check; a node is never its own neighbor, so
		// the reference loop's self-skip is structural here.
		sh.cand = sh.cand[:0]
		if ch >= 0 && ch < maxBitsetChannels {
			bits64 := k.txBits[ch]
			if bits64 == nil {
				// No transmitter anywhere used ch this round: the bitset
				// was never allocated, and there are no candidates.
				continue
			}
			if k.denseRows != nil && len(k.nbrs[i]) >= k.txWords {
				// Dense path: word-wise neighbor-row ∩ transmitter-bitset.
				row := k.denseRows[i*k.txWords : (i+1)*k.txWords]
				for w := 0; w < k.txWords; w++ {
					m := row[w] & bits64[w]
					for m != 0 {
						j := int32(w<<6 + bits.TrailingZeros64(m))
						m &= m - 1
						if hasLinkFails && !e.linkAlive(id, k.nodes[j], round) {
							continue
						}
						sh.cand = append(sh.cand, j)
					}
				}
			} else {
				// Sparse path: bit-test the transmitter bitset per
				// neighbor — one bit load instead of an Action struct.
				for _, j := range k.nbrs[i] {
					if bits64[j>>6]&(1<<(uint(j)&63)) == 0 {
						continue
					}
					if hasLinkFails && !e.linkAlive(id, k.nodes[j], round) {
						continue
					}
					sh.cand = append(sh.cand, j)
				}
			}
		} else {
			// Out-of-range channel: walk the neighbor actions directly.
			for _, j := range k.nbrs[i] {
				t := &k.actions[j]
				if t.Kind != Transmit || t.Channel != ch {
					continue
				}
				if hasLinkFails && !e.linkAlive(id, k.nodes[j], round) {
					continue
				}
				sh.cand = append(sh.cand, j)
			}
		}
		// Partition windows: cut-off candidates become losses in ascending
		// candidate order, before any coin is drawn (rounds.Partitions).
		if cut {
			kept := 0
			for _, j := range sh.cand {
				if !e.parts.Cuts(round, id, k.nodes[j]) {
					sh.cand[kept] = j
					kept++
					continue
				}
				sh.nLoss++
				sh.nRx++
				if k.traced {
					sh.evRx = append(sh.evRx, Event{Round: round, Kind: EvLoss, Node: id, Peer: k.nodes[j], Channel: ch, Msg: k.actions[j].Msg})
				}
			}
			sh.cand = sh.cand[:kept]
		}
		if len(sh.cand) == 0 {
			continue
		}

		// Coins and outcome: rounds.Resolve draws one coin per candidate
		// in candidate order from the listener's stream; losses are staged
		// in that same order, then exactly one outcome event. The stream
		// and lost-index buffers live in the shard so the per-listener call
		// allocates nothing.
		if lossy {
			sh.st = rounds.NewLossStream(uint64(e.cfg.LossSeed), id, round)
		}
		verdict, win, lost := rounds.Resolve(len(sh.cand), e.cfg.LossRate, &sh.st, sh.lost[:0])
		sh.lost = lost
		for _, c := range lost {
			j := sh.cand[c]
			sh.nLoss++
			sh.nRx++
			if k.traced {
				sh.evRx = append(sh.evRx, Event{Round: round, Kind: EvLoss, Node: id, Peer: k.nodes[j], Channel: ch, Msg: k.actions[j].Msg})
			}
		}
		switch verdict {
		case rounds.Delivered:
			first := sh.cand[win]
			sh.nDel++
			sh.nRx++
			msg := k.actions[first].Msg
			if k.traced {
				sh.evRx = append(sh.evRx, Event{Round: round, Kind: EvDeliver, Node: id, Peer: k.nodes[first], Channel: ch, Msg: msg})
			}
			sh.deliv = append(sh.deliv, Delivery{Index: int32(i), Msg: msg})
		case rounds.Collided:
			sh.nCol++
			sh.nRx++
			if k.traced {
				sh.evRx = append(sh.evRx, Event{Round: round, Kind: EvCollision, Node: id, Channel: ch})
			}
		}
	}
}

// deliverAndDone is the third shard phase: stamp the shard's rx events from
// their stitched base, then let the host hand resolve's deliveries to the
// shard's nodes and report Done transitions for the quiescence counter.
//
//dynlint:shardsafe deliverAndDone runs concurrently per shard
func (k *kernel) deliverAndDone(sh *shard, round int) {
	stampSeq(sh.evRx, sh.rxBase)
	sh.newlyDone = 0
	k.e.host.Finish(&sh.batch)
}

// fill converts the dense per-node counters into the Result maps with the
// reference loop's shape: an Awake entry (possibly zero) for every node,
// Listens/Transmits entries only for nodes that listened or transmitted.
func (k *kernel) fill(res *Result) {
	for i, id := range k.nodes {
		res.Awake[id] = k.awake[i]
		if k.listens[i] > 0 {
			res.Listens[id] = k.listens[i]
		}
		if k.transmits[i] > 0 {
			res.Transmits[id] = k.transmits[i]
		}
	}
}
