// Package joinproto executes node-move-in as an actual over-the-air
// message exchange on the radio engine, the way Section 5.1 describes it
// running on real sensors:
//
//	phase 1  neighbor discovery — the randomized decay handshake
//	         (internal/discovery), O(d_new) expected rounds;
//	phase 2  knowledge collection — the joiner polls each discovered
//	         neighbor in turn for its status and depth (2 rounds per
//	         neighbor, collision-free because the joiner serializes);
//	phase 3  attach — the joiner applies Definition 1 locally, announces
//	         its chosen parent, and the parent acknowledges (promoting
//	         itself member->gateway when rule (c) fires, with a notice to
//	         its own head);
//	phase 4  knowledge (II) maintenance — time-slot recalculation and the
//	         height/delta reports to the root, charged through the
//	         structural layer's Lemma 2 / Theorem 2 accounting.
//
// The structural outcome is then applied through core.Network.Join using
// exactly the neighbor set the radio discovered — if discovery missed a
// neighbor (a Monte Carlo event), the structure honestly reflects that,
// just like a real deployment would.
package joinproto

import (
	"fmt"

	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/discovery"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// Message kinds for phases 2-3, carried in radio.Message.Depth.
const (
	msgQuery   = 11
	msgInfo    = 12
	msgAttach  = 13
	msgAck     = 14
	msgPromote = 15
)

// Result reports a protocol join.
type Result struct {
	// Parent is the node chosen by Definition 1 over the discovered set.
	Parent graph.NodeID
	// Discovered lists the neighbors found in phase 1, ascending.
	Discovered []graph.NodeID
	// DiscoveryComplete is true when phase 1 found every true neighbor.
	DiscoveryComplete bool
	// Phase round counts, measured on the engine (phases 1-3) or charged
	// per Lemma 2 / Theorem 2 (phase 4).
	DiscoveryRounds int
	QueryRounds     int
	AttachRounds    int
	SlotRounds      int
	HeightRounds    int
}

// TotalRounds sums all phases.
func (r Result) TotalRounds() int {
	return r.DiscoveryRounds + r.QueryRounds + r.AttachRounds + r.SlotRounds + r.HeightRounds
}

// String renders a summary.
func (r Result) String() string {
	return fmt.Sprintf("join: parent=%d neighbors=%d complete=%v rounds: discover=%d query=%d attach=%d slots=%d height=%d (total %d)",
		r.Parent, len(r.Discovered), r.DiscoveryComplete,
		r.DiscoveryRounds, r.QueryRounds, r.AttachRounds, r.SlotRounds, r.HeightRounds, r.TotalRounds())
}

// neighborInfo is what phase 2 learns per neighbor.
type neighborInfo struct {
	status cnet.Status
	depth  int
}

// Join runs the full protocol for a new node id whose radio can physically
// reach trueNeighbors, then applies the structural join. seed drives the
// discovery coins. Each over-the-air phase (discovery, query, attach) is
// its own engine run under cfg, with rounds counted from 1 in each phase:
// a failure scheduled for round r strikes in round r of every phase, and
// cfg's sinks see every phase's events. The network is mutated on success.
func Join(net *core.Network, id graph.NodeID, trueNeighbors []graph.NodeID, seed int64, cfg radio.Config) (Result, error) {
	if net.Contains(id) {
		return Result{}, fmt.Errorf("joinproto: node %d already present", id)
	}
	if len(trueNeighbors) == 0 {
		return Result{}, fmt.Errorf("joinproto: node %d hears nobody", id)
	}
	for _, n := range trueNeighbors {
		if !net.Contains(n) {
			return Result{}, fmt.Errorf("joinproto: neighbor %d not in network", n)
		}
	}

	// Physical graph for the episode: the network plus the joiner's links.
	g := net.Graph().Clone()
	g.AddNode(id)
	for _, n := range trueNeighbors {
		if err := g.AddEdge(id, n); err != nil {
			return Result{}, err
		}
	}

	var res Result

	// Phase 1: discovery.
	disc, err := discovery.Run(g, id, seed, cfg)
	if err != nil {
		return Result{}, err
	}
	if len(disc.Discovered) == 0 {
		return Result{}, fmt.Errorf("joinproto: discovery found no neighbors for %d", id)
	}
	res.Discovered = disc.Discovered
	res.DiscoveryComplete = disc.Complete
	res.DiscoveryRounds = disc.Rounds

	// Phase 2: poll each discovered neighbor for status and depth.
	info, rounds, err := queryPhase(net, g, id, disc.Discovered, cfg)
	if err != nil {
		return Result{}, err
	}
	res.QueryRounds = rounds

	// Phase 3: Definition 1 over the gathered knowledge; attach exchange.
	parent := chooseParent(info)
	res.Parent = parent
	attachRounds, err := attachPhase(net, g, id, parent, info[parent].status == cnet.Member, cfg)
	if err != nil {
		return Result{}, err
	}
	res.AttachRounds = attachRounds

	// Phase 4: structural application + knowledge (II) maintenance, using
	// exactly what the radio discovered.
	pre := net.Stats()
	if err := net.Join(id, disc.Discovered); err != nil {
		return Result{}, fmt.Errorf("joinproto: structural join: %w", err)
	}
	post := net.Stats()
	res.SlotRounds = post.SlotRounds - pre.SlotRounds
	res.HeightRounds = 2 * post.Height

	// Cross-check: the structural layer must agree with the protocol's
	// parent decision (same rules, same candidate set, same policy).
	if p, ok := net.CNet().Tree().Parent(id); !ok || p != parent {
		return Result{}, fmt.Errorf("joinproto: protocol chose parent %d but structure has %v", parent, p)
	}
	return res, nil
}

// chooseParent applies Definition 1 with the default lowest-ID policy over
// the neighbor knowledge.
func chooseParent(info map[graph.NodeID]neighborInfo) graph.NodeID {
	best := graph.NodeID(-1)
	bestClass := 3
	class := func(s cnet.Status) int {
		switch s {
		case cnet.Head:
			return 0
		case cnet.Gateway:
			return 1
		default:
			return 2
		}
	}
	for id, ni := range info {
		c := class(ni.status)
		if c < bestClass || (c == bestClass && (best == -1 || id < best)) {
			best, bestClass = id, c
		}
	}
	return best
}

// queryPhase runs 2 rounds per neighbor: QUERY(Dst=u) then u's INFO reply.
func queryPhase(net *core.Network, g *graph.Graph, id graph.NodeID, nbrs []graph.NodeID, cfg radio.Config) (map[graph.NodeID]neighborInfo, int, error) {
	progs := make(map[graph.NodeID]radio.Program, g.NumNodes())
	j := &queryJoiner{id: id, targets: nbrs, info: make(map[graph.NodeID]neighborInfo)}
	progs[id] = j
	depths := net.CNet().Tree().DepthMap()
	for _, nid := range g.Nodes() {
		if nid == id {
			continue
		}
		if g.HasEdge(nid, id) {
			st, _ := net.CNet().Status(nid)
			progs[nid] = &queryResponder{id: nid, status: st, depth: depths[nid], horizon: 2 * len(nbrs)}
		} else {
			progs[nid] = idle{}
		}
	}
	eng, err := radio.NewEngine(g, progs, cfg)
	if err != nil {
		return nil, 0, err
	}
	r := eng.Run(2 * len(nbrs))
	if len(j.info) != len(nbrs) {
		return nil, 0, fmt.Errorf("joinproto: query phase heard %d/%d neighbors", len(j.info), len(nbrs))
	}
	return j.info, r.Rounds, nil
}

// queryJoiner, queryResponder, attachNode and idle (plus leaveproto's
// tourNode) run on the radio engine and honor the radio.Program contract:
// every field is node-private or written only at build time, and each
// Done is a pure monotone threshold on the node's own round counter.
// Enforced statically by dynlint/progpurity via these assertions.
var (
	_ radio.Program = (*queryJoiner)(nil)
	_ radio.Program = (*queryResponder)(nil)
	_ radio.Program = (*attachNode)(nil)
	_ radio.Program = idle{}
)

type queryJoiner struct {
	id      graph.NodeID
	targets []graph.NodeID
	info    map[graph.NodeID]neighborInfo
	cur     int
}

func (q *queryJoiner) Act(round int) radio.Action {
	q.cur = round
	i := (round - 1) / 2
	if i >= len(q.targets) {
		return radio.SleepAction()
	}
	if round%2 == 1 {
		return radio.TransmitOn(0, radio.Message{Seq: msgQuery, Depth: msgQuery, Src: q.id, Dst: q.targets[i]})
	}
	return radio.ListenOn(0)
}

func (q *queryJoiner) Deliver(_ int, msg radio.Message) {
	if msg.Depth != msgInfo {
		return
	}
	q.info[msg.From] = neighborInfo{status: cnet.Status(msg.Slot), depth: msg.MaxSlot}
}

func (q *queryJoiner) Done() bool { return q.cur >= 2*len(q.targets) }

type queryResponder struct {
	id      graph.NodeID
	status  cnet.Status
	depth   int
	horizon int
	queried bool
	cur     int
}

func (q *queryResponder) Act(round int) radio.Action {
	q.cur = round
	if round > q.horizon {
		return radio.SleepAction()
	}
	if q.queried {
		q.queried = false
		return radio.TransmitOn(0, radio.Message{
			Seq: msgInfo, Depth: msgInfo, Src: q.id,
			Slot: int(q.status), MaxSlot: q.depth,
		})
	}
	return radio.ListenOn(0)
}

func (q *queryResponder) Deliver(_ int, msg radio.Message) {
	if msg.Depth == msgQuery && msg.Dst == q.id {
		q.queried = true
	}
}

func (q *queryResponder) Done() bool { return q.cur >= q.horizon }

// attachPhase runs the ATTACH / ACK (/ PROMOTE) exchange.
func attachPhase(net *core.Network, g *graph.Graph, id, parent graph.NodeID, promotes bool, cfg radio.Config) (int, error) {
	rounds := 2
	if promotes {
		rounds = 3
	}
	progs := make(map[graph.NodeID]radio.Program, g.NumNodes())
	joiner := &attachNode{id: id, txAt: 1, txMsg: radio.Message{Seq: msgAttach, Depth: msgAttach, Src: id, Dst: parent}, horizon: rounds}
	progs[id] = joiner
	par := &attachNode{id: parent, txAt: 2, txMsg: radio.Message{Seq: msgAck, Depth: msgAck, Src: parent, Dst: id}, horizon: rounds}
	progs[parent] = par
	var headOfParent graph.NodeID = radio.NoNode
	if promotes {
		if hp, ok := net.CNet().Tree().Parent(parent); ok {
			headOfParent = hp
			par.tx2At = 3
			par.tx2Msg = radio.Message{Seq: msgPromote, Depth: msgPromote, Src: parent, Dst: hp}
		}
	}
	for _, nid := range g.Nodes() {
		if _, ok := progs[nid]; ok {
			continue
		}
		if nid == headOfParent {
			progs[nid] = &attachNode{id: nid, horizon: rounds} // listens for the promote notice
			continue
		}
		progs[nid] = idle{}
	}
	eng, err := radio.NewEngine(g, progs, cfg)
	if err != nil {
		return 0, err
	}
	eng.Run(rounds)
	if !joiner.heardAck {
		return 0, fmt.Errorf("joinproto: no ACK from parent %d", parent)
	}
	return rounds, nil
}

type attachNode struct {
	id       graph.NodeID
	txAt     int
	txMsg    radio.Message
	tx2At    int
	tx2Msg   radio.Message
	horizon  int
	heardAck bool
	cur      int
}

func (a *attachNode) Act(round int) radio.Action {
	a.cur = round
	switch round {
	case a.txAt:
		if a.txAt > 0 {
			return radio.TransmitOn(0, a.txMsg)
		}
	case a.tx2At:
		if a.tx2At > 0 {
			return radio.TransmitOn(0, a.tx2Msg)
		}
	}
	if round <= a.horizon {
		return radio.ListenOn(0)
	}
	return radio.SleepAction()
}

func (a *attachNode) Deliver(_ int, msg radio.Message) {
	if msg.Depth == msgAck && msg.Dst == a.id {
		a.heardAck = true
	}
}

func (a *attachNode) Done() bool { return a.cur >= a.horizon }

// idle is a non-participant.
type idle struct{}

func (idle) Act(int) radio.Action       { return radio.SleepAction() }
func (idle) Deliver(int, radio.Message) {}
func (idle) Done() bool                 { return true }
