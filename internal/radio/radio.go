// Package radio implements the paper's sensor-network model (Section 3.1)
// as a round-synchronous radio simulator:
//
//   - all nodes share a round clock; in each round a node is a transmitter,
//     a receiver, or asleep;
//   - nodes have no collision detection: a receiver gets a message in a
//     round iff exactly one of its neighbors transmits in that round on the
//     channel it is tuned to;
//   - k radio channels are supported (the paper's multi-channel extension);
//   - energy is accounted as awake rounds (listen + transmit), matching the
//     paper's energy metric;
//   - node and link failures can be injected at chosen rounds, and
//     partitions can silence a cut for a round window, for the robustness
//     experiments.
//
// Protocols are written as per-node Programs; the engine drives them and
// measures what actually happened, so broadcast completion times, awake
// counts and collision counts in the experiment harness are observations,
// not formulas. The nodes are in-process Programs (NewEngine) or any other
// NodeHost (NewHostedEngine) — internal/dist's remote actor fleets — on the
// same round loop.
package radio

import (
	"fmt"
	"sort"

	"dynsens/internal/graph"
	"dynsens/internal/radio/rounds"
)

// Channel identifies a radio channel, 0-based.
type Channel int

// NoNode is a sentinel for "no designated node" in Message fields.
const NoNode graph.NodeID = -1

// Message is the over-the-air packet. Its fields are a union of what the
// paper's protocols carry: the broadcast payload identity, the
// transmitter's time-slot and depth (CFF packages (m, t, Delta, i)), the
// largest slot and tree height (improved CFF), a designated-receiver ID
// (the DFO token), and a multicast group.
type Message struct {
	Seq     int          // payload identity; all copies of one broadcast share it
	Src     graph.NodeID // original source of the payload
	From    graph.NodeID // transmitter; stamped by the engine on delivery
	Dst     graph.NodeID // designated receiver (DFO token target), NoNode if none
	Slot    int          // transmitter's time-slot t
	Depth   int          // transmitter's depth i
	MaxSlot int          // Delta or delta carried in the package
	Height  int          // CNet height h carried by improved CFF
	Group   int          // multicast group ID; 0 means plain broadcast
	Value   int64        // aggregated payload for data gathering
}

// ActionKind says what a node does in a round.
type ActionKind int

const (
	// Sleep: radio off; costs no energy.
	Sleep ActionKind = iota
	// Listen: receive on Action.Channel; costs one awake round.
	Listen
	// Transmit: send Action.Msg on Action.Channel; costs one awake round.
	Transmit
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case Sleep:
		return "sleep"
	case Listen:
		return "listen"
	case Transmit:
		return "transmit"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is a node's choice for one round.
type Action struct {
	Kind    ActionKind
	Channel Channel
	Msg     Message // for Transmit
}

// SleepAction is the zero-cost action.
func SleepAction() Action { return Action{Kind: Sleep} }

// ListenOn tunes the radio to ch for one round.
func ListenOn(ch Channel) Action { return Action{Kind: Listen, Channel: ch} }

// TransmitOn sends msg on ch.
func TransmitOn(ch Channel, msg Message) Action {
	return Action{Kind: Transmit, Channel: ch, Msg: msg}
}

// Program is a per-node protocol state machine. The engine calls Act at the
// start of each round; if the node listened and reception succeeded it calls
// Deliver with the message before the next round's Act. Done lets the engine
// stop early once every live node reports local termination.
//
// Contract (node-local state): a Program owns only its node's private
// state. Act and Deliver must not read or write anything shared with
// another node's Program or with the engine — no shared counters, no
// peeking at neighbor state, no package-level RNGs (a per-node rand.Rand
// seeded at build time is fine). Shared read-only schedule data built
// before the run (slot tables, tour maps) is allowed as long as no Program
// writes it. Under this contract the engine may call Act (and Deliver) for
// *different* nodes concurrently from different goroutines; calls for one
// node are always sequenced Act(r), Deliver(r)…, Done(), Act(r+1) with
// happens-before edges between phases, so a Program never needs locks.
//
// Done must be pure (it mutates nothing, so the engine may skip or repeat
// calls) and monotone (once it returns true it keeps returning true for
// the rest of the run). The engine tracks quiescence with a live/not-done
// counter instead of rescanning every node every round, so a Program that
// "un-finishes" would be missed. Every protocol in this repository keeps
// Done as a pure threshold on monotone local state.
//
// The node-locality and Done-purity halves of this contract are enforced
// statically: dynlint/progpurity checks every type with a compile-time
// `var _ radio.Program = ...` assertion (see docs/static-analysis.md).
type Program interface {
	Act(round int) Action
	Deliver(round int, msg Message)
	Done() bool
}

// EventKind classifies trace events.
type EventKind int

const (
	// EvTransmit: a node transmitted.
	EvTransmit EventKind = iota
	// EvDeliver: a listening node received a message.
	EvDeliver
	// EvCollision: a listening node heard >= 2 transmitters on its channel.
	EvCollision
	// EvNodeFail: a node died.
	EvNodeFail
	// EvLinkFail: a link was cut.
	EvLinkFail
	// EvLoss: a frame a listener would have heard was dropped by the loss
	// model (Node is the listener, Peer the transmitter).
	EvLoss
)

// String returns the short label used by trace renderings and event sinks.
func (k EventKind) String() string {
	switch k {
	case EvTransmit:
		return "tx"
	case EvDeliver:
		return "rx"
	case EvCollision:
		return "collision"
	case EvNodeFail:
		return "node-fail"
	case EvLinkFail:
		return "link-fail"
	case EvLoss:
		return "loss"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is a trace record.
type Event struct {
	// Seq is the engine's monotonic event sequence number, starting at 1
	// per engine. Hook consumers use it to detect gaps (a bounded recorder
	// dropped events) and to order events without relying on callback
	// order.
	Seq     uint64
	Round   int
	Kind    EventKind
	Node    graph.NodeID
	Peer    graph.NodeID // EvLinkFail: other endpoint; EvDeliver: transmitter
	Channel Channel
	Msg     Message
}

// Result summarizes a run.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Quiesced is true if every live program reported Done before the
	// round limit.
	Quiesced bool
	// Awake maps each node to its awake-round count (listen + transmit).
	Awake map[graph.NodeID]int
	// Listens and Transmits split Awake by activity, for energy models
	// that price reception and transmission differently.
	Listens   map[graph.NodeID]int
	Transmits map[graph.NodeID]int
	// Deliveries is the number of successful receptions.
	Deliveries int
	// Collisions is the number of (listener, round) pairs that heard two
	// or more simultaneous transmitters on their channel.
	Collisions int
	// Transmissions is the total number of transmit actions.
	Transmissions int
	// Losses is the number of (listener, transmitter, round) frames the
	// loss model dropped before collision resolution.
	Losses int
}

// MaxAwake returns the largest per-node awake count.
func (r Result) MaxAwake() int {
	m := 0
	for _, a := range r.Awake {
		if a > m {
			m = a
		}
	}
	return m
}

// MeanAwake returns the mean per-node awake count (0 for empty runs).
func (r Result) MeanAwake() float64 {
	if len(r.Awake) == 0 {
		return 0
	}
	sum := 0
	for _, a := range r.Awake {
		sum += a
	}
	return float64(sum) / float64(len(r.Awake))
}

// linkKey is the normalized undirected link key; it is the rounds package's
// Link so the engine's failure maps feed rounds.NewSchedule without
// conversion.
type linkKey = rounds.Link

func mkLink(u, v graph.NodeID) linkKey { return rounds.MkLink(u, v) }

// NodeFailure kills a node at the start of a round during the run.
type NodeFailure struct {
	Node  graph.NodeID
	Round int
}

// LinkFailure cuts a link at the start of a round during the run.
type LinkFailure struct {
	A, B  graph.NodeID
	Round int
}

// Config is everything a run can be told beyond its graph and its nodes:
// the fault schedule, the sinks and the worker count. The zero value is a
// fault-free, untraced run at the default worker count. Every protocol
// package passes its caller's Config to the engine unchanged.
type Config struct {
	// Failures kill nodes at the start of a round (1-based): from that
	// round on the node neither transmits nor listens. A later entry for
	// the same node wins; a node the graph lacks still has its death
	// traced.
	Failures []NodeFailure
	// LinkFailures cut links at the start of a round.
	LinkFailures []LinkFailure
	// Skew gives nodes a local clock offset: at global round r a node
	// believes the round is r+offset and acts accordingly. This models the
	// imperfect synchronization Section 3.3 discusses — TDM schedules
	// tolerate skew only up to their guard margins, which the skew
	// experiment measures.
	Skew map[graph.NodeID]int
	// LossRate, in [0,1), drops every frame independently on each listener
	// (fading, interference from outside the model). Lost frames are
	// neither delivered nor do they jam: the listener simply never hears
	// them. LossSeed keys the coins: counter-based splitmix64 streams
	// keyed by (seed, listener, round) — see internal/radio/rounds — so
	// the coin for a given frame does not depend on what any other
	// listener heard, and the kernel can draw it in-shard. The scheme
	// changed in the stream-RNG revision: runs with the same seed draw
	// different coins than the old serial-*rand.Rand engine did (flight
	// recordings carry the scheme name in their header so old recordings
	// stay interpretable).
	LossRate float64
	LossSeed int64
	// Partitions script healable partitions (see rounds.Partition): while
	// a window is up, a listener does not hear transmitters on the other
	// side of its cut, and each swallowed frame is traced as an EvLoss.
	Partitions []rounds.Partition
	// TraceBatch, when non-nil, receives the run's events: contiguous runs
	// of events — one call per shard buffer per phase per round — instead
	// of one call per event, which keeps instrumentation off the per-event
	// hot path. Batches arrive on the run goroutine, already Seq-stamped,
	// in the deterministic global event order at any worker count. The
	// slice is reused by the engine: consumers must copy events they
	// retain past the callback's return.
	TraceBatch func([]Event)
	// Perf, when non-nil, collects kernel performance measurements (see
	// perf.go). It never changes what Run computes: results, traces and
	// flight recordings stay byte-identical — the collector only observes
	// wall-clock time and event volume. RunReference is not instrumented
	// (it is the executable spec, kept boring on purpose).
	Perf *Perf
	// Workers fixes the number of shard workers for Run's act, resolve and
	// deliver phases. 0 (or less) keeps the default: GOMAXPROCS, except
	// that graphs smaller than minParallelNodes run inline. An explicit
	// w >= 1 is honored exactly (capped at the node count). Results,
	// traces and flight recordings are byte-identical at any worker count;
	// Workers only moves wall-clock time.
	Workers int
}

// Engine drives a set of nodes over a graph.
type Engine struct {
	g        *graph.Graph
	host     NodeHost
	programs map[graph.NodeID]Program // in-process engines only (RunReference)
	cfg      Config

	// Lookup forms of cfg's schedules, built once by NewHostedEngine.
	parts    *rounds.Partitions   // healable partition windows; nil = none
	nodeFail map[graph.NodeID]int // node -> round it dies (inclusive)
	linkFail map[linkKey]int      // link -> round it is cut (inclusive)

	one [1]Event // reusable single-event batch for emit
	seq uint64   // monotonic Event.Seq counter
}

// NewEngine builds an engine over g that runs under cfg. programs must
// contain an entry for every node of g.
func NewEngine(g *graph.Graph, programs map[graph.NodeID]Program, cfg Config) (*Engine, error) {
	for _, id := range g.Nodes() {
		if programs[id] == nil {
			return nil, fmt.Errorf("radio: no program for node %d", id)
		}
	}
	if len(programs) != g.NumNodes() {
		return nil, fmt.Errorf("radio: %d programs for %d nodes", len(programs), g.NumNodes())
	}
	e, err := NewHostedEngine(g, &programHost{programs: programs}, cfg)
	if err != nil {
		return nil, err
	}
	e.programs = programs
	return e, nil
}

// NewHostedEngine builds an engine over g whose nodes live behind host —
// the seam a distributed runtime plugs its fleet into — and that runs
// under cfg. Run drives them exactly as it drives in-process Programs;
// RunReference needs in-process Programs and is only available on
// NewEngine engines.
func NewHostedEngine(g *graph.Graph, host NodeHost, cfg Config) (*Engine, error) {
	if !(cfg.LossRate >= 0 && cfg.LossRate < 1) {
		return nil, fmt.Errorf("radio: loss rate %v out of [0,1)", cfg.LossRate)
	}
	e := &Engine{
		g:        g,
		host:     host,
		cfg:      cfg,
		parts:    rounds.NewPartitions(cfg.Partitions),
		nodeFail: make(map[graph.NodeID]int, len(cfg.Failures)),
		linkFail: make(map[linkKey]int, len(cfg.LinkFailures)),
	}
	for _, f := range cfg.Failures {
		e.nodeFail[f.Node] = f.Round
	}
	for _, f := range cfg.LinkFailures {
		e.linkFail[mkLink(f.A, f.B)] = f.Round
	}
	return e, nil
}

func (e *Engine) localRound(id graph.NodeID, round int) int { return round + e.cfg.Skew[id] }

func (e *Engine) nodeAlive(id graph.NodeID, round int) bool {
	r, ok := e.nodeFail[id]
	return !ok || round < r
}

func (e *Engine) linkAlive(u, v graph.NodeID, round int) bool {
	r, ok := e.linkFail[mkLink(u, v)]
	return !ok || round < r
}

func (e *Engine) emit(ev Event) {
	e.seq++
	ev.Seq = e.seq
	if e.cfg.TraceBatch != nil {
		e.one[0] = ev
		e.cfg.TraceBatch(e.one[:])
	}
}

// sinkBatch forwards one deterministic run of Seq-stamped events to the
// trace hook. The kernel calls this once per shard buffer per phase per
// round from its serial stitch.
func (e *Engine) sinkBatch(evs []Event) {
	if len(evs) > 0 && e.cfg.TraceBatch != nil {
		e.cfg.TraceBatch(evs)
	}
}

// RunReference executes up to maxRounds rounds (1-based round numbers) with
// the original single-loop engine and returns the observed result. It stops
// early once every live program is Done.
//
// It is retained as the executable specification of the engine's semantics:
// Run (the three-phase kernel in kernel.go) must produce a byte-identical
// event stream and an identical Result for any Program set that honors the
// Program contract, at any worker count. The equivalence suite and
// FuzzEngineEquivalence diff the two; keep this loop boring and obviously
// correct rather than fast.
func (e *Engine) RunReference(maxRounds int) Result {
	res := Result{
		Awake:     make(map[graph.NodeID]int, e.g.NumNodes()),
		Listens:   make(map[graph.NodeID]int, e.g.NumNodes()),
		Transmits: make(map[graph.NodeID]int, e.g.NumNodes()),
	}
	nodes := e.g.Nodes()
	for _, id := range nodes {
		res.Awake[id] = 0
	}
	type tx struct {
		from graph.NodeID
		msg  Message
	}
	// Failure events are emitted exactly once, at the failing round, in
	// sorted order: trace output must be byte-identical across runs, and
	// map iteration would shuffle simultaneous failures.
	nodeFails := make([]graph.NodeID, 0, len(e.nodeFail))
	for id := range e.nodeFail {
		nodeFails = append(nodeFails, id)
	}
	sort.Slice(nodeFails, func(i, j int) bool { return nodeFails[i] < nodeFails[j] })
	linkFails := make([]linkKey, 0, len(e.linkFail))
	for lk := range e.linkFail {
		linkFails = append(linkFails, lk)
	}
	sort.Slice(linkFails, func(i, j int) bool {
		if linkFails[i].U != linkFails[j].U {
			return linkFails[i].U < linkFails[j].U
		}
		return linkFails[i].V < linkFails[j].V
	})
	for round := 1; round <= maxRounds; round++ {
		for _, id := range nodeFails {
			if e.nodeFail[id] == round {
				e.emit(Event{Round: round, Kind: EvNodeFail, Node: id})
			}
		}
		for _, lk := range linkFails {
			if e.linkFail[lk] == round {
				e.emit(Event{Round: round, Kind: EvLinkFail, Node: lk.U, Peer: lk.V})
			}
		}

		// Check global quiescence among live nodes.
		allDone := true
		for _, id := range nodes {
			if e.nodeAlive(id, round) && !e.programs[id].Done() {
				allDone = false
				break
			}
		}
		if allDone {
			res.Rounds = round - 1
			res.Quiesced = true
			return res
		}

		// Gather actions.
		transmitters := make(map[Channel][]tx)
		listeners := make(map[graph.NodeID]Channel)
		for _, id := range nodes {
			if !e.nodeAlive(id, round) {
				continue
			}
			a := e.programs[id].Act(e.localRound(id, round))
			switch a.Kind {
			case Sleep:
				// no cost
			case Listen:
				res.Awake[id]++
				res.Listens[id]++
				listeners[id] = a.Channel
			case Transmit:
				res.Awake[id]++
				res.Transmits[id]++
				res.Transmissions++
				m := a.Msg
				m.From = id
				transmitters[a.Channel] = append(transmitters[a.Channel], tx{from: id, msg: m})
				e.emit(Event{Round: round, Kind: EvTransmit, Node: id, Channel: a.Channel, Msg: m})
			default:
				//lint:ignore dynlint/panics a Program returning an undefined ActionKind is a protocol bug, not an input; failing loud beats mis-accounting energy
				panic(fmt.Sprintf("radio: node %d returned invalid action kind %d", id, a.Kind))
			}
		}

		// Resolve receptions: exactly one transmitting neighbor on the
		// listened channel, over live links.
		for _, id := range nodes {
			ch, ok := listeners[id]
			if !ok {
				continue
			}
			// Loss coins come from the listener's (seed, id, round) counter
			// stream, one draw per audible candidate in ascending
			// transmitter order. That order — not the draw site — is the
			// contract the kernel reproduces (see internal/radio/rounds).
			// Partition windows drop their cut-off frames first, as losses,
			// before any coin is drawn.
			var audible []tx
			for _, t := range transmitters[ch] {
				if t.from == id {
					continue
				}
				if !e.g.HasEdge(id, t.from) {
					continue
				}
				if !e.linkAlive(id, t.from, round) {
					continue
				}
				if e.parts.Cuts(round, id, t.from) {
					res.Losses++
					e.emit(Event{Round: round, Kind: EvLoss, Node: id, Peer: t.from, Channel: ch, Msg: t.msg})
					continue
				}
				audible = append(audible, t)
			}
			var st rounds.LossStream
			if e.cfg.LossRate > 0 {
				st = rounds.NewLossStream(uint64(e.cfg.LossSeed), id, round)
			}
			var heard []tx
			for _, t := range audible {
				if e.cfg.LossRate > 0 && st.Next() < e.cfg.LossRate {
					res.Losses++
					e.emit(Event{Round: round, Kind: EvLoss, Node: id, Peer: t.from, Channel: ch, Msg: t.msg})
					continue
				}
				heard = append(heard, t)
			}
			switch {
			case len(heard) == 1:
				res.Deliveries++
				e.emit(Event{Round: round, Kind: EvDeliver, Node: id, Peer: heard[0].from, Channel: ch, Msg: heard[0].msg})
				e.programs[id].Deliver(e.localRound(id, round), heard[0].msg)
			case len(heard) > 1:
				res.Collisions++
				e.emit(Event{Round: round, Kind: EvCollision, Node: id, Channel: ch})
			}
		}
		res.Rounds = round
	}
	// Final quiescence check after the last round.
	res.Quiesced = true
	for _, id := range nodes {
		if e.nodeAlive(id, maxRounds+1) && !e.programs[id].Done() {
			res.Quiesced = false
			break
		}
	}
	return res
}
