package broadcast

import (
	"fmt"
	"math/rand"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// PFloodOptions tune the unstructured probabilistic flooding baseline.
type PFloodOptions struct {
	// Seed drives the per-node coin flips.
	Seed int64
	// Forward is the rebroadcast probability (1 = blind flooding, the
	// "broadcast storm" regime of Ni et al. [16]).
	Forward float64
	// MaxDelay is the random backoff: a forwarding node retransmits
	// uniformly within [1, MaxDelay] rounds after first reception.
	// Default 4.
	MaxDelay int
	// Horizon is how many rounds nodes keep listening; unstructured
	// nodes cannot know when the broadcast ends. Default 4*diameter-ish:
	// 6*sqrt(n)+20.
	Horizon int
}

// pfloodNode implements reactive probabilistic flooding on a flat network:
// listen until the payload arrives, maybe rebroadcast once after a random
// backoff, and keep listening until the horizon (there is no structure to
// say when it is safe to sleep — the energy cost the paper's clustering
// removes).
//
// Contract compliance (radio.Program): the forwarding coin and backoff are
// drawn at build time, so run-time state is node-private; Done is a pure
// monotone horizon threshold. Enforced statically by dynlint/progpurity
// via the assertion below.
type pfloodNode struct {
	id       graph.NodeID
	src      graph.NodeID
	startHas bool
	horizon  int
	forward  bool
	delay    int

	received      bool
	receivedRound int
	txRound       int
	cur           int
}

var _ radio.Program = (*pfloodNode)(nil)

func (p *pfloodNode) Received() (bool, int) {
	if p.startHas {
		return true, 0
	}
	return p.received, p.receivedRound
}

func (p *pfloodNode) Act(round int) radio.Action {
	p.cur = round
	if round > p.horizon {
		return radio.SleepAction()
	}
	if p.txRound == round {
		// Src carries the payload's origin (not the rebroadcaster): every
		// copy of one payload must share its (Seq, Src) identity so causal
		// tooling (flight span traces) can stitch the relay DAG together.
		return radio.TransmitOn(0, radio.Message{Seq: payloadSeq, Src: p.src, Dst: radio.NoNode})
	}
	return radio.ListenOn(0)
}

func (p *pfloodNode) Deliver(round int, msg radio.Message) {
	if msg.Seq != payloadSeq || p.received || p.startHas {
		return
	}
	p.received = true
	p.receivedRound = round
	if p.forward {
		p.txRound = round + p.delay
	}
}

func (p *pfloodNode) Done() bool { return p.cur >= p.horizon }

// PFloodPlan builds the unstructured baseline over a flat graph: no
// clusters, no slots, no schedule — just probabilistic re-flooding. It is
// the comparison point for the broadcast-storm problem the introduction
// cites: at Forward=1 with small MaxDelay, dense networks collide so much
// that delivery collapses.
func PFloodPlan(g *graph.Graph, source graph.NodeID, opts PFloodOptions) (*Plan, error) {
	if !g.HasNode(source) {
		return nil, fmt.Errorf("broadcast: source %d not in graph", source)
	}
	if opts.Forward < 0 || opts.Forward > 1 {
		return nil, fmt.Errorf("broadcast: forward probability %v out of [0,1]", opts.Forward)
	}
	maxDelay := opts.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 4
	}
	horizon := opts.Horizon
	if horizon <= 0 {
		n := g.NumNodes()
		horizon = 20
		for s := 1; s*s < n; s++ {
			horizon = 6*s + 20
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	progs := make(map[graph.NodeID]radio.Program, g.NumNodes())
	for _, id := range g.Nodes() {
		p := &pfloodNode{
			id:       id,
			src:      source,
			horizon:  horizon,
			startHas: id == source,
			forward:  rng.Float64() < opts.Forward,
			delay:    1 + rng.Intn(maxDelay),
		}
		if p.startHas {
			p.txRound = 1 // the source always transmits immediately
		}
		progs[id] = p
	}
	return &Plan{
		Protocol:    "PFLOOD",
		ScheduleLen: horizon,
		Programs:    progs,
		Audience:    g.Nodes(),
	}, nil
}

// RunPFlood builds and runs the baseline.
func RunPFlood(g *graph.Graph, source graph.NodeID, opts PFloodOptions) (Metrics, error) {
	plan, err := PFloodPlan(g, source, opts)
	if err != nil {
		return Metrics{}, err
	}
	return plan.Run(g, Options{})
}
