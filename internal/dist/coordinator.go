package dist

import (
	"fmt"
	"time"

	"dynsens/internal/graph"
	"dynsens/internal/netio/frame"
	"dynsens/internal/radio"
)

// DefaultRoundTimeout bounds how long the coordinator waits for one node's
// answer to one barrier before declaring it crashed. Generous on purpose:
// it only fires for genuinely wedged nodes, and a healthy barrier exchange
// is microseconds.
const DefaultRoundTimeout = 10 * time.Second

// Coordinator runs a fleet of actor nodes on the radio kernel. It embeds
// the *radio.Engine that drives the run — Run, and the failure, skew,
// loss, partition, trace and perf settings of its radio.Config, are the
// engine's own — and is that engine's NodeHost: each shard's act and finish phases become one barrier
// over the shard's node range, Act (collect the node's action) and Finish
// (apply its delivery, collect its Done bit). Audibility, loss coins and
// event order are therefore the kernel's, and a run's Result, event stream
// (Event.Seq included) and recordings are byte-identical to an in-process
// run of the same seed and scenario. The unscripted faults of real
// transports — process death, protocol violation, barrier timeout — are
// reported to the kernel as crashes: the node sleeps the rest of the round
// and dies at the start of the next, the semantics of a scheduled
// radio.Config failure. Fleets are single-use, so call Run once per
// coordinator.
type Coordinator struct {
	*radio.Engine

	fleet   Fleet
	links   []*nodeLink // by node index: ascending node ID
	timeout time.Duration
	mirror  map[graph.NodeID]radio.Program
}

// nodeLink is the coordinator's per-node run state: the peer, its reader
// goroutine's channel, and the fault state. Only the shard owning the
// node's index touches it during a run.
type nodeLink struct {
	id   graph.NodeID
	peer *Peer
	in   chan frame.Frame
	// crashed: the node violated the protocol, missed a barrier or lost its
	// connection; err says how. It is skipped for the rest of the round.
	crashed bool
	err     error
	// halted: the connection is finished with (halt sent and/or closed).
	halted bool
}

// barrierHost is the Coordinator viewed as the engine's radio.NodeHost; a
// distinct type keeps the host methods off the Coordinator's API.
type barrierHost Coordinator

// NewCoordinator connects one peer per node of g (in ascending node order)
// through the fleet, for a run under cfg. The fleet's Hellos must introduce
// exactly the nodes of g. The coordinator takes ownership of the fleet:
// Close tears it down, and an error return has already closed it.
func NewCoordinator(g *graph.Graph, fleet Fleet, cfg radio.Config) (*Coordinator, error) {
	c := &Coordinator{fleet: fleet, timeout: DefaultRoundTimeout}
	eng, err := radio.NewHostedEngine(g, (*barrierHost)(c), cfg)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	c.Engine = eng
	nodes := g.Nodes()
	c.links = make([]*nodeLink, len(nodes))
	for i, id := range nodes {
		peer, err := fleet.Connect(id)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		if peer.Node() != id {
			_ = c.Close()
			return nil, fmt.Errorf("dist: fleet connected node %d where %d was asked for", peer.Node(), id)
		}
		l := &nodeLink{id: id, peer: peer, in: make(chan frame.Frame, 4)}
		c.links[i] = l
		go pump(l)
	}
	return c, nil
}

// pump is l's reader goroutine: it decodes frames off the connection into
// l.in until the stream errors (halt-close, process death, garbage), then
// closes the channel so a pending recv sees the failure immediately.
func pump(l *nodeLink) {
	for {
		var f frame.Frame
		if err := l.peer.dec.Decode(&f); err != nil {
			close(l.in)
			return
		}
		l.in <- f
	}
}

// MirrorDeliveries replays every delivery the coordinator hands out into
// the given local Program copies. Out-of-process fleets (ProcFleet,
// TCPFleet) execute their own reconstructions of the plan's Programs, so
// reception state interrogated after the run — broadcast's Received()
// metrics fill — would otherwise stay empty on the coordinator side. The
// mirror copies see the exact Deliver(localRound, msg) calls the remote
// nodes do, nothing else; do not set this for fleets that share memory
// with these Programs (LocalFleet), which would deliver twice.
func (c *Coordinator) MirrorDeliveries(programs map[graph.NodeID]radio.Program) {
	c.mirror = programs
}

// SetRoundTimeout overrides DefaultRoundTimeout; d <= 0 waits forever
// (barrier faults then only surface through transport errors).
func (c *Coordinator) SetRoundTimeout(d time.Duration) { c.timeout = d }

// Err returns a transport or protocol anomaly the run absorbed as a crash —
// the lowest node's, if several — or nil on an undisturbed run. The Result
// stays valid either way: faults are part of the simulation, not of its
// bookkeeping.
func (c *Coordinator) Err() error {
	for _, l := range c.links {
		if l != nil && l.err != nil {
			return l.err
		}
	}
	return nil
}

// Close halts every node still connected (a healthy remote process exits
// cleanly on the Halt frame) and tears the fleet down. Idempotent.
func (c *Coordinator) Close() error {
	for _, l := range c.links {
		if l != nil {
			c.haltLink(l)
		}
	}
	return c.fleet.Close()
}

// send writes one frame to l, bounded by the round timeout so a node that
// stopped reading cannot wedge the barrier.
func (c *Coordinator) send(l *nodeLink, f *frame.Frame) error {
	if c.timeout > 0 {
		if dw, ok := l.peer.conn.(deadlineWriter); ok {
			//lint:ignore dynlint/nondeterminism the barrier timeout bounds a remote peer's I/O, not simulation state; an undisturbed run never hits it, and a hit becomes a deterministic scheduled failure
			_ = dw.SetWriteDeadline(time.Now().Add(c.timeout))
		}
	}
	return l.peer.enc.Encode(f)
}

// recv waits for l's next frame, bounded by the round timeout.
func (c *Coordinator) recv(l *nodeLink) (frame.Frame, error) {
	if c.timeout <= 0 {
		f, ok := <-l.in
		if !ok {
			return frame.Frame{}, fmt.Errorf("dist: node %d: connection lost", l.id)
		}
		return f, nil
	}
	//lint:ignore dynlint/nondeterminism the barrier timeout bounds a remote peer's answer, not simulation state; an undisturbed run never hits it, and a hit becomes a deterministic scheduled failure
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case f, ok := <-l.in:
		if !ok {
			return frame.Frame{}, fmt.Errorf("dist: node %d: connection lost", l.id)
		}
		return f, nil
	case <-t.C:
		return frame.Frame{}, fmt.Errorf("dist: node %d: no answer within %v", l.id, c.timeout)
	}
}

// haltLink finishes with a node's connection: a best-effort Halt frame
// unless the node crashed, then close.
func (c *Coordinator) haltLink(l *nodeLink) {
	if l.halted {
		return
	}
	l.halted = true
	if !l.crashed {
		_ = c.send(l, &frame.Frame{Kind: frame.KindHalt})
	}
	_ = l.peer.conn.Close()
}

// crash reports node i to the kernel as crashed mid-round and drops its
// connection.
func (c *Coordinator) crash(b *radio.Batch, i int, err error) {
	l := c.links[i]
	l.crashed, l.err = true, err
	b.Crash(i)
	c.haltLink(l)
}

// Start seeds the kernel's Done bits from the nodes' Hellos.
func (h *barrierHost) Start(_ []graph.NodeID, done []bool) {
	for i, l := range h.links {
		done[i] = l.peer.hello.Done
	}
}

// Act is the act barrier of one shard's node range: every live node
// answers an Act frame (at its local round) with its Program's action.
//
//dynlint:shardsafe shards drive their own node ranges' barriers concurrently; a range touches only its own links
func (h *barrierHost) Act(b *radio.Batch) {
	(*Coordinator)(h).barrier(b, frame.KindAct, nil, frame.KindAction, func(i int, f *frame.Frame) {
		b.Put(i, f.Action)
	})
}

// Finish is the finish barrier of one shard's node range: every live node
// gets a Finish frame, carrying its delivery if it heard one, and answers
// with its Done bit.
//
//dynlint:shardsafe shards drive their own node ranges' barriers concurrently; a range touches only its own links
func (h *barrierHost) Finish(b *radio.Batch) {
	c := (*Coordinator)(h)
	dl := b.Deliveries()
	deliver := func(i int, f *frame.Frame) {
		if len(dl) == 0 || int(dl[0].Index) != i {
			return
		}
		f.HasMsg, f.Msg = true, dl[0].Msg
		dl = dl[1:]
		// The delivery happened this round regardless of what the node
		// does next (kernel semantics), so the mirror copy records it even
		// if the send crashes the link.
		if prog := c.mirror[c.links[i].id]; prog != nil {
			prog.Deliver(f.Round, f.Msg)
		}
	}
	c.barrier(b, frame.KindFinish, deliver, frame.KindStatus, func(i int, f *frame.Frame) {
		if f.Done {
			b.MarkDone(i)
		}
	})
}

// barrier runs one pipelined barrier over b's node range: it sends every
// live node a frame of kind out (at the node's local round, filled in by
// fill when non-nil), then collects the answers of kind want in ascending
// order and hands each to got — so the range's nodes compute in parallel
// and the barrier waits once, not once per node. A node that fails either
// leg is reported crashed and sits out the rest of the round. Nodes that
// died by schedule are halted here, the first barrier they sit out.
func (c *Coordinator) barrier(b *radio.Batch, out frame.Kind, fill func(int, *frame.Frame), want frame.Kind, got func(int, *frame.Frame)) {
	lo, hi := b.Range()
	for i := lo; i < hi; i++ {
		l := c.links[i]
		if !b.Live(i) || l.crashed {
			c.haltLink(l)
			continue
		}
		f := frame.Frame{Kind: out, Round: b.LocalRound(i)}
		if fill != nil {
			fill(i, &f)
		}
		if err := c.send(l, &f); err != nil {
			c.crash(b, i, fmt.Errorf("dist: node %d: %v send: %w", l.id, out, err))
		}
	}
	for i := lo; i < hi; i++ {
		l := c.links[i]
		if !b.Live(i) || l.crashed {
			continue
		}
		lr := b.LocalRound(i)
		f, err := c.recv(l)
		if err == nil && (f.Kind != want || f.Round != lr) {
			err = fmt.Errorf("dist: node %d: got %v(round %d) awaiting %v of round %d", l.id, f.Kind, f.Round, want, lr)
		}
		if err != nil {
			c.crash(b, i, err)
			continue
		}
		got(i, &f)
	}
}
