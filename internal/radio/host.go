package radio

import (
	"fmt"

	"dynsens/internal/graph"
)

// NodeHost is the kernel's seam for the node-local half of a round: asking
// live nodes for their actions, and handing them their receptions. The
// kernel keeps everything else — the failure schedule, partitions, resolve,
// loss coins, event order, energy accounting and quiescence — so every host
// runs on one statement of the round semantics. NewEngine hosts Programs
// in-process; internal/dist hosts remote actor nodes behind frame barriers.
//
// Act and Finish are called once per shard per round with that shard's
// Batch. Shards cover disjoint ascending node-index ranges and run
// concurrently, so a host must touch only the batch and the state of the
// batch's own nodes (the kernel's shard-phase rules).
type NodeHost interface {
	// Start binds the host to a run: nodes lists the graph's nodes in
	// ascending order (node index i is nodes[i]); the host fills done[i]
	// with node i's initial Done bit.
	Start(nodes []graph.NodeID, done []bool)
	// Act calls b.Put with the round's action of every live node in the
	// batch's range, in any order — or b.Crash for a node that cannot
	// answer, which then sleeps through the round.
	Act(b *Batch)
	// Finish hands each live node in the range its reception (from
	// b.Deliveries) and calls b.MarkDone for the nodes now Done. A node
	// that cannot be reached is reported with b.Crash.
	Finish(b *Batch)
}

// Delivery is one reception the resolve phase decided: node index Index
// heard Msg this round.
type Delivery struct {
	Index int32
	Msg   Message
}

// Batch is one shard's view of the current round, handed to a NodeHost.
// Node indices are positions in the ascending node order given to Start.
type Batch struct {
	k     *kernel
	sh    *shard
	round int
}

// Range returns the shard's node-index range [lo, hi).
func (b *Batch) Range() (lo, hi int) { return b.sh.lo, b.sh.hi }

// Live reports whether node i takes part in the round (it has not died).
func (b *Batch) Live(i int) bool { return b.round < b.k.deadAt[i] }

// LocalRound is the round node i believes it is: the global round plus
// its clock skew.
func (b *Batch) LocalRound(i int) int { return b.round + b.k.skews[i] }

// Done reports whether node i has already reported Done.
func (b *Batch) Done(i int) bool { return b.k.doneF[i] }

// MarkDone records that node i now reports Done; Done is monotone, so
// repeated marks count once.
func (b *Batch) MarkDone(i int) {
	if !b.k.doneF[i] {
		b.k.doneF[i] = true
		b.sh.newlyDone++
	}
}

// Deliveries returns the shard's receptions for the round, in ascending
// node-index order. Only valid during Finish.
func (b *Batch) Deliveries() []Delivery { return b.sh.deliv }

// Crash reports that node i stopped taking part mid-round: it sleeps for
// the rest of this round and dies — EvNodeFail and all — at the start of
// the next, exactly as if a Config.Failures entry had scheduled it.
func (b *Batch) Crash(i int) {
	b.k.actions[i] = Action{}
	b.sh.crashed = append(b.sh.crashed, int32(i))
}

// Put records node i's action for the round: energy accounting, the
// transmitter stamp, the transmitter index for resolve, and (traced runs)
// the transmit event.
func (b *Batch) Put(i int, a Action) {
	p := &b.k.actions[i]
	*p = a
	if p.Kind != Sleep {
		b.account(i, p)
	}
}

// account is Put's bookkeeping for a non-Sleep action, done in place on
// node i's slot a.
func (b *Batch) account(i int, a *Action) {
	k, sh := b.k, b.sh
	switch a.Kind {
	case Listen:
		k.awake[i]++
		k.listens[i]++
	case Transmit:
		k.awake[i]++
		k.transmits[i]++
		id := k.nodes[i]
		a.Msg.From = id
		sh.txIdx = append(sh.txIdx, int32(i))
		if k.traced {
			sh.evAct = append(sh.evAct, Event{Round: b.round, Kind: EvTransmit, Node: id, Channel: a.Channel, Msg: a.Msg})
		}
	default:
		//lint:ignore dynlint/panics a Program returning an undefined ActionKind is a protocol bug, not an input; failing loud beats mis-accounting energy
		panic(fmt.Sprintf("radio: node %d returned invalid action kind %d", k.nodes[i], a.Kind))
	}
}

// programHost is the in-process NodeHost: it calls each node's Program
// directly, one pass over the shard's range per phase.
type programHost struct {
	programs map[graph.NodeID]Program
	progs    []Program // by node index, bound by Start
}

func (h *programHost) Start(nodes []graph.NodeID, done []bool) {
	h.progs = make([]Program, len(nodes))
	for i, id := range nodes {
		h.progs[i] = h.programs[id]
		done[i] = h.progs[i].Done()
	}
}

// Act collects every live node's action for the round.
//
//dynlint:shardsafe act runs concurrently per shard
//dynlint:hotpath per node per round
func (h *programHost) Act(b *Batch) {
	lo, hi := b.Range()
	acts := b.k.actions
	for i := lo; i < hi; i++ {
		if !b.Live(i) {
			continue
		}
		// Put's work, storing the action straight into its slot: a by-value
		// Put would copy the action twice more per node and round.
		acts[i] = h.progs[i].Act(b.LocalRound(i))
		if acts[i].Kind != Sleep {
			b.account(i, &acts[i])
		}
	}
}

// Finish hands resolve's deliveries to the shard's Programs (every
// delivery's listener is inside the shard by construction) and re-reads
// Done where it could have flipped.
//
//dynlint:shardsafe finish runs concurrently per shard
//dynlint:hotpath per node per round
func (h *programHost) Finish(b *Batch) {
	for _, d := range b.Deliveries() {
		h.progs[d.Index].Deliver(b.LocalRound(int(d.Index)), d.Msg)
	}
	lo, hi := b.Range()
	for i := lo; i < hi; i++ {
		if !b.Done(i) && b.Live(i) && h.progs[i].Done() {
			b.MarkDone(i)
		}
	}
}
