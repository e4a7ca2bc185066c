// Package discovery implements the randomized neighbor-discovery handshake
// that node-move-in builds on. The paper inherits from [19] that "a
// node-move-in operation can be done in O(d_new) expected rounds" starting
// from zero knowledge: the joining node does not know who its neighbors
// are, the radio has no collision detection, and several neighbors
// answering at once silently destroy each other.
//
// The protocol here is the classic estimate-free decay scheme (Bar-Yehuda
// et al. style, as used by randomized initialization protocols): time is
// organized in probe/response round pairs; in response round i of an
// epoch, every still-unacknowledged neighbor answers with probability
// 2^-(i mod E). Whenever exactly one neighbor answers, the joiner hears it
// and acknowledges it in the next probe, silencing it. The joiner stops
// after a fixed number of consecutive epochs without a new discovery — a
// Monte Carlo termination rule, which is exactly why the guarantee is
// "expected rounds" and "with high probability".
//
// The protocol runs on the real radio engine, so the measured round counts
// in the discovery experiment include every collision it actually caused.
package discovery

import (
	"fmt"
	"math/rand"
	"sort"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// Message kinds carried in radio.Message.Depth (the field is free here).
const (
	msgProbe    = 1
	msgResponse = 2
)

// Decay schedule and termination.
const (
	// epochLength is the number of probability levels per decay epoch:
	// response probability is 2^-i for i = 0..epochLength-1.
	epochLength = 8
	// maxSilentEpochs is how many consecutive epochs without a discovery
	// end the protocol. Six push the miss probability per remaining neighbor
	// below ~1e-3: each barren epoch has probability roughly 0.2-0.4 while
	// neighbors remain undiscovered.
	maxSilentEpochs = 6
	// maxRounds hard-bounds the run.
	maxRounds = 4096
)

// Result reports a discovery run.
type Result struct {
	// Discovered lists the neighbors the joiner heard, ascending.
	Discovered []graph.NodeID
	// Complete is true when Discovered equals the joiner's true
	// neighborhood (ground truth from the graph; the protocol itself only
	// knows it w.h.p.).
	Complete bool
	// Rounds is the number of rounds the engine executed.
	Rounds int
	// Collisions counts response rounds lost to simultaneous answers.
	Collisions int
	// Transmissions counts every frame sent by anyone.
	Transmissions int
}

// joinerProg alternates probe and listen rounds and tracks discoveries.
//
// Contract compliance (radio.Program): all state is node-private; Done is
// a pure read of the done flag, which is set once and never cleared.
// Enforced statically by dynlint/progpurity via the assertion below.
type joinerProg struct {
	id graph.NodeID

	discovered   map[graph.NodeID]bool
	lastHeard    graph.NodeID
	haveAck      bool
	epochRound   int
	silentEpochs int
	newInEpoch   bool
	done         bool
	cur          int
}

func (p *joinerProg) Act(round int) radio.Action {
	p.cur = round
	if p.done {
		return radio.SleepAction()
	}
	if round%2 == 1 {
		// Probe round: announce presence; piggyback the latest ACK.
		msg := radio.Message{Seq: msgProbe, Src: p.id, Dst: radio.NoNode, Depth: msgProbe}
		if p.haveAck {
			msg.Dst = p.lastHeard
			p.haveAck = false
		}
		// Advance the decay schedule; close epochs on wraparound.
		p.epochRound++
		if p.epochRound >= epochLength {
			p.epochRound = 0
			if p.newInEpoch {
				p.silentEpochs = 0
			} else {
				p.silentEpochs++
				if p.silentEpochs >= maxSilentEpochs {
					p.done = true
				}
			}
			p.newInEpoch = false
		}
		msg.Slot = p.epochRound // current probability level, for responders
		return radio.TransmitOn(0, msg)
	}
	return radio.ListenOn(0)
}

func (p *joinerProg) Deliver(_ int, msg radio.Message) {
	if msg.Depth != msgResponse {
		return
	}
	if !p.discovered[msg.Src] {
		p.discovered[msg.Src] = true
		p.newInEpoch = true
	}
	p.lastHeard = msg.Src
	p.haveAck = true
}

func (p *joinerProg) Done() bool { return p.done }

// responderProg answers probes with decaying probability until ACKed, and
// gives up once probes stop arriving (the joiner finished without hearing
// it — the Monte Carlo miss case) so the simulation quiesces.
//
// Contract compliance (radio.Program): each responder owns a private
// rand.Rand split off the run's stream at build time, so concurrent Act
// calls across nodes never share a coin source; acked is set once and
// never cleared, keeping Done pure and monotone. Enforced statically by
// dynlint/progpurity via the assertion below.
type responderProg struct {
	id        graph.NodeID
	rng       *rand.Rand
	level     int // probability level received in the last probe
	probed    bool
	acked     bool
	lastProbe int
	timeout   int
	cur       int
}

func (p *responderProg) Act(round int) radio.Action {
	p.cur = round
	if p.acked {
		return radio.SleepAction()
	}
	if p.lastProbe > 0 && round-p.lastProbe > p.timeout {
		p.acked = true // give up; treated as done
		return radio.SleepAction()
	}
	if round%2 == 1 {
		return radio.ListenOn(0)
	}
	if !p.probed {
		return radio.ListenOn(0)
	}
	p.probed = false
	if p.rng.Float64() < prob(p.level) {
		return radio.TransmitOn(0, radio.Message{Seq: msgResponse, Src: p.id, Depth: msgResponse})
	}
	return radio.ListenOn(0)
}

func prob(level int) float64 {
	p := 1.0
	for i := 0; i < level; i++ {
		p /= 2
	}
	return p
}

func (p *responderProg) Deliver(round int, msg radio.Message) {
	if msg.Depth != msgProbe {
		return
	}
	p.lastProbe = round
	if msg.Dst == p.id {
		p.acked = true
		return
	}
	p.probed = true
	p.level = msg.Slot
}

func (p *responderProg) Done() bool { return p.acked }

// Run executes neighbor discovery for joiner over the ground-truth graph
// g (which must already contain joiner and its edges), under cfg. seed
// drives all coin flips. Non-neighbors stay silent; the engine enforces
// who can actually hear whom.
func Run(g *graph.Graph, joiner graph.NodeID, seed int64, cfg radio.Config) (Result, error) {
	if !g.HasNode(joiner) {
		return Result{}, fmt.Errorf("discovery: joiner %d not in graph", joiner)
	}
	rng := rand.New(rand.NewSource(seed))
	jp := &joinerProg{id: joiner, discovered: make(map[graph.NodeID]bool)}
	progs := map[graph.NodeID]radio.Program{joiner: jp}
	for _, id := range g.Nodes() {
		if id == joiner {
			continue
		}
		if g.HasEdge(id, joiner) {
			progs[id] = &responderProg{
				id:      id,
				rng:     rand.New(rand.NewSource(rng.Int63())),
				timeout: 4 * epochLength,
			}
		} else {
			progs[id] = silent{}
		}
	}
	eng, err := radio.NewEngine(g, progs, cfg)
	if err != nil {
		return Result{}, err
	}
	res := eng.Run(maxRounds)

	out := Result{
		Rounds:        res.Rounds,
		Collisions:    res.Collisions,
		Transmissions: res.Transmissions,
	}
	for id := range jp.discovered {
		out.Discovered = append(out.Discovered, id)
	}
	sort.Slice(out.Discovered, func(i, j int) bool { return out.Discovered[i] < out.Discovered[j] })
	truth := g.Neighbors(joiner)
	out.Complete = len(out.Discovered) == len(truth)
	for i := range truth {
		if !out.Complete {
			break
		}
		if out.Discovered[i] != truth[i] {
			out.Complete = false
		}
	}
	return out, nil
}

var (
	_ radio.Program = (*joinerProg)(nil)
	_ radio.Program = (*responderProg)(nil)
	_ radio.Program = silent{}
)

// silent is a non-participant.
type silent struct{}

func (silent) Act(int) radio.Action       { return radio.SleepAction() }
func (silent) Deliver(int, radio.Message) {}
func (silent) Done() bool                 { return true }
