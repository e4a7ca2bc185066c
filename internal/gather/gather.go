// Package gather implements collision-free data gathering (convergecast)
// on the cluster-based structure — the third communication pattern the
// paper's introduction puts ahead of point-to-point traffic ("broadcast,
// multicast and data gathering are more important...").
//
// The schedule mirrors the broadcast TDM in reverse: depths transmit from
// the deepest up, one window per depth; within a window every node sends
// its aggregated subtree value at its g-time-slot, chosen so that each
// parent hears each of its children without collision (a child's slot must
// be unique among all same-depth nodes its parent can hear). The sink ends
// up with the exact aggregate in W*h rounds with every node awake at most
// W+1 rounds, W being the largest g-slot — the convergecast analogue of
// Theorem 1.
package gather

import (
	"fmt"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// gatherSeq marks convergecast frames.
const gatherSeq = 2

// Schedule carries g-time-slots for one CNet.
type Schedule struct {
	net     *cnet.CNet
	slot    map[graph.NodeID]int
	maxSlot int
}

// NewSchedule greedily assigns g-slots: processing nodes in deterministic
// BFS order, each non-root node takes the smallest slot not used by any
// same-depth node its parent can hear (including its siblings).
func NewSchedule(net *cnet.CNet) *Schedule {
	s := &Schedule{net: net, slot: make(map[graph.NodeID]int)}
	tr := net.Tree()
	depth := tr.DepthMap()
	for _, v := range tr.Subtree(tr.Root()) {
		if v == tr.Root() {
			continue
		}
		forbidden := make(map[int]struct{})
		for _, u := range s.conflicts(v, depth) {
			if sl, ok := s.slot[u]; ok {
				forbidden[sl] = struct{}{}
			}
		}
		sl := 1
		for {
			if _, bad := forbidden[sl]; !bad {
				break
			}
			sl++
		}
		s.slot[v] = sl
		if sl > s.maxSlot {
			s.maxSlot = sl
		}
	}
	return s
}

// conflicts returns the same-depth nodes that must not share v's slot:
// those audible at v's parent, and those whose own parent hears both (the
// symmetric closure keeps every parent's inbox collision-free).
func (s *Schedule) conflicts(v graph.NodeID, depth map[graph.NodeID]int) []graph.NodeID {
	tr := s.net.Tree()
	g := s.net.Graph()
	dv := depth[v]
	seen := make(map[graph.NodeID]struct{})
	var out []graph.NodeID
	add := func(u graph.NodeID) {
		if u == v {
			return
		}
		if _, dup := seen[u]; dup {
			return
		}
		seen[u] = struct{}{}
		out = append(out, u)
	}
	// Nodes at v's depth audible at v's parent.
	if p, ok := tr.Parent(v); ok {
		for _, u := range g.Neighbors(p) {
			if depth[u] == dv {
				add(u)
			}
		}
	}
	// Nodes u whose parent hears v too.
	for _, q := range g.Neighbors(v) {
		// q could be a parent at depth dv-1 of some other child u.
		if depth[q] != dv-1 {
			continue
		}
		for _, u := range tr.Children(q) {
			if depth[u] == dv {
				add(u)
			}
		}
	}
	return out
}

// Slot returns v's g-slot (0 for the root).
func (s *Schedule) Slot(v graph.NodeID) int { return s.slot[v] }

// MaxSlot returns the window width W.
func (s *Schedule) MaxSlot() int { return s.maxSlot }

// Verify checks the gathering condition: for every parent p and child c,
// no other same-depth node audible at p shares c's slot.
func (s *Schedule) Verify() error {
	tr := s.net.Tree()
	g := s.net.Graph()
	depth := tr.DepthMap()
	for _, p := range tr.Nodes() {
		for _, c := range tr.Children(p) {
			for _, u := range g.Neighbors(p) {
				if u == c || depth[u] != depth[c] {
					continue
				}
				if s.slot[u] == s.slot[c] {
					return fmt.Errorf("gather: parent %d cannot separate child %d from %d (slot %d)",
						p, c, u, s.slot[c])
				}
			}
		}
	}
	for v, sl := range s.slot {
		if sl <= 0 {
			return fmt.Errorf("gather: node %d has slot %d", v, sl)
		}
	}
	return nil
}

// Metrics reports a convergecast run.
type Metrics struct {
	// Sum is the aggregate that reached the sink; Expected the true total.
	Sum, Expected int64
	// Reporting is how many nodes' values are included in Sum.
	Reporting int
	// Nodes is the network size.
	Nodes int
	// Rounds, MaxAwake, MeanAwake, Collisions mirror the broadcast metrics.
	Rounds int
	// Quiesced is true when every live program reported Done before the
	// schedule ran out.
	Quiesced      bool
	ScheduleLen   int
	MaxAwake      int
	MeanAwake     float64
	Collisions    int
	Transmissions int
}

// Complete reports whether every node's value arrived.
func (m Metrics) Complete() bool { return m.Reporting == m.Nodes }

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("GATHER: sum=%d/%d reporting=%d/%d rounds=%d (sched %d) maxAwake=%d collisions=%d",
		m.Sum, m.Expected, m.Reporting, m.Nodes, m.Rounds, m.ScheduleLen, m.MaxAwake, m.Collisions)
}

// gatherNode aggregates its subtree and fires once in its depth window.
//
// Contract compliance (radio.Program): the schedule and child set are
// written only at build time; the running sum is node-private (each node
// aggregates what *it* heard — there is no shared accumulator). Done is a
// pure monotone threshold on the node's own schedule end. Enforced
// statically by dynlint/progpurity via the assertion below.
type gatherNode struct {
	id       graph.NodeID
	value    int64
	count    int64
	txRound  int // 0 for the root
	listenLo int // children window (0 if leaf)
	listenHi int
	children map[graph.NodeID]bool

	sum       int64
	reported  int64
	heardFrom map[graph.NodeID]bool
	cur       int
}

var _ radio.Program = (*gatherNode)(nil)

func (p *gatherNode) Act(round int) radio.Action {
	p.cur = round
	if p.txRound == round {
		return radio.TransmitOn(0, radio.Message{
			Seq: gatherSeq, Src: p.id,
			Value: p.sum + p.value,
			Slot:  int(p.reported + p.count),
		})
	}
	if p.listenLo > 0 && round >= p.listenLo && round <= p.listenHi {
		return radio.ListenOn(0)
	}
	return radio.SleepAction()
}

func (p *gatherNode) Deliver(_ int, msg radio.Message) {
	if msg.Seq != gatherSeq || !p.children[msg.From] {
		return
	}
	p.sum += msg.Value
	p.reported += int64(msg.Slot)
	p.heardFrom[msg.From] = true
}

func (p *gatherNode) Done() bool {
	if p.txRound > 0 {
		return p.cur >= p.txRound
	}
	return p.listenHi == 0 || p.cur >= p.listenHi
}

// buildPrograms constructs the per-node convergecast programs and returns
// them with the schedule length and the expected total.
func buildPrograms(net *cnet.CNet, sched *Schedule, values map[graph.NodeID]int64) (map[graph.NodeID]radio.Program, int, int64) {
	tr := net.Tree()
	depth := tr.DepthMap()
	h := tr.Height()
	w := sched.MaxSlot()

	progs := make(map[graph.NodeID]radio.Program, tr.Size())
	var expected int64
	for _, id := range tr.Nodes() {
		d := depth[id]
		gn := &gatherNode{
			id:        id,
			value:     values[id],
			count:     1,
			children:  make(map[graph.NodeID]bool),
			heardFrom: make(map[graph.NodeID]bool),
		}
		expected += values[id]
		for _, c := range tr.Children(id) {
			gn.children[c] = true
		}
		if id != tr.Root() {
			// Depth-d window is windows index (h-d): rounds
			// [(h-d)*w+1, (h-d+1)*w].
			gn.txRound = (h-d)*w + sched.Slot(id)
		}
		if len(gn.children) > 0 {
			gn.listenLo = (h-d-1)*w + 1
			gn.listenHi = (h - d) * w
		}
		progs[id] = gn
	}
	return progs, h * w, expected
}

// Run executes one convergecast under cfg: every node contributes
// values[id] (missing entries contribute 0) and the sink aggregates the
// sum. The returned metrics are measured on the radio engine.
func Run(net *cnet.CNet, sched *Schedule, values map[graph.NodeID]int64, cfg radio.Config) (Metrics, error) {
	tr := net.Tree()
	progs, schedLen, expected := buildPrograms(net, sched, values)
	eng, err := radio.NewEngine(net.Graph(), progs, cfg)
	if err != nil {
		return Metrics{}, err
	}
	res := eng.Run(schedLen)

	root := progs[tr.Root()].(*gatherNode)
	return Metrics{
		Sum:           root.sum + root.value,
		Expected:      expected,
		Reporting:     int(root.reported + root.count),
		Nodes:         tr.Size(),
		Rounds:        res.Rounds,
		Quiesced:      res.Quiesced,
		ScheduleLen:   schedLen,
		MaxAwake:      res.MaxAwake(),
		MeanAwake:     res.MeanAwake(),
		Collisions:    res.Collisions,
		Transmissions: res.Transmissions,
	}, nil
}
