package joinproto

import (
	"fmt"

	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// Message kinds for node-move-out's Step 0 tour.
const (
	msgLeaving = 21
	msgDelete  = 22
)

// LeaveResult reports a protocol node-move-out (Section 5.2).
type LeaveResult struct {
	// Removed is the departed node; Subtree the size of the detached T.
	Removed graph.NodeID
	Subtree int
	// AnnounceRounds is Step 0(i): "I will leave" with height updates
	// along the path to the root (measured on the engine).
	AnnounceRounds int
	// TourRounds is Step 0(ii)'s Eulerian tour over T carrying "delete me
	// and recalculate" (measured on the engine; one transmitter per round,
	// so it is collision-free like the DFO token).
	TourRounds int
	// StructuralRounds and SlotRounds cover Steps 1-3: the re-insertion
	// of T's nodes (each already knows its neighbors, so per Theorem 2 no
	// re-discovery is needed) and the slot repairs, charged through the
	// structural layer's Theorem 2/3 and Lemma 2 accounting.
	StructuralRounds int
	SlotRounds       int
}

// TotalRounds sums all phases.
func (r LeaveResult) TotalRounds() int {
	return r.AnnounceRounds + r.TourRounds + r.StructuralRounds + r.SlotRounds
}

// String renders a summary.
func (r LeaveResult) String() string {
	return fmt.Sprintf("leave: node=%d |T|=%d rounds: announce=%d tour=%d struct=%d slots=%d (total %d)",
		r.Removed, r.Subtree, r.AnnounceRounds, r.TourRounds,
		r.StructuralRounds, r.SlotRounds, r.TotalRounds())
}

// Leave runs node-move-out as messages: the departure announcement races
// up the tree, the Euler tour walks the departing subtree telling the
// neighbors of each visited node to drop it and recalculate, and then the
// structural layer re-inserts the orphans and repairs knowledge (II). Both
// over-the-air steps are engine runs under cfg, with rounds counted from 1
// in each: a failure scheduled for round r strikes in round r of the
// announcement and of the tour, and cfg's sinks see both. The network is
// mutated on success; the residual graph must stay connected.
func Leave(net *core.Network, lev graph.NodeID, cfg radio.Config) (LeaveResult, error) {
	if !net.Contains(lev) {
		return LeaveResult{}, fmt.Errorf("joinproto: node %d not present", lev)
	}
	tr := net.CNet().Tree()
	res := LeaveResult{Removed: lev, Subtree: len(tr.Subtree(lev))}

	// Step 0(i): announce along the path to the root, one hop per round.
	path := tr.PathToRoot(lev)
	if len(path) > 1 {
		rounds, err := relayPath(net.Graph(), path, cfg)
		if err != nil {
			return LeaveResult{}, err
		}
		res.AnnounceRounds = rounds
	}

	// Step 0(ii): Euler tour over T with "delete me" messages. Every
	// neighbor of the tour's current node hears it (single transmitter
	// per round). For a leaf T this is a single announcement.
	tour := subtreeTour(tr, lev)
	rounds, err := runTour(net.Graph(), tour, cfg)
	if err != nil {
		return LeaveResult{}, err
	}
	res.TourRounds = rounds

	// Steps 1-3: structural removal, re-insertion and repairs.
	pre := net.Stats()
	if err := net.Leave(lev); err != nil {
		return LeaveResult{}, err
	}
	post := net.Stats()
	res.StructuralRounds = post.StructuralRounds - pre.StructuralRounds
	res.SlotRounds = post.SlotRounds - pre.SlotRounds
	return res, nil
}

// subtreeTour returns the Euler tour of the subtree rooted at lev,
// restricted to tree edges inside the subtree.
func subtreeTour(tr interface {
	Subtree(graph.NodeID) []graph.NodeID
	Children(graph.NodeID) []graph.NodeID
}, lev graph.NodeID) []graph.NodeID {
	var tour []graph.NodeID
	var walk func(u graph.NodeID)
	walk = func(u graph.NodeID) {
		tour = append(tour, u)
		for _, c := range tr.Children(u) {
			walk(c)
			tour = append(tour, u)
		}
	}
	walk(lev)
	return tour
}

// relayPath sends a message hop by hop along path (one transmitter per
// round) and returns the measured rounds.
func relayPath(g *graph.Graph, path []graph.NodeID, cfg radio.Config) (int, error) {
	progs := make(map[graph.NodeID]radio.Program, g.NumNodes())
	horizon := len(path) - 1
	for _, id := range g.Nodes() {
		progs[id] = idle{}
	}
	for j, id := range path {
		n := &attachNode{id: id, horizon: horizon}
		if j < len(path)-1 {
			n.txAt = j + 1
			n.txMsg = radio.Message{Seq: msgLeaving, Depth: msgLeaving, Src: path[0], Dst: path[j+1]}
		}
		progs[id] = n
	}
	eng, err := radio.NewEngine(g, progs, cfg)
	if err != nil {
		return 0, err
	}
	r := eng.Run(horizon)
	return r.Rounds, nil
}

// runTour transmits the "delete me" message from each tour position in its
// own round; all neighbors of tour nodes listen.
func runTour(g *graph.Graph, tour []graph.NodeID, cfg radio.Config) (int, error) {
	horizon := len(tour)
	progs := make(map[graph.NodeID]radio.Program, g.NumNodes())
	listeners := make(map[graph.NodeID]bool)
	txAt := make(map[graph.NodeID][]int)
	for p, id := range tour {
		txAt[id] = append(txAt[id], p+1)
		for _, nb := range g.Neighbors(id) {
			listeners[nb] = true
		}
	}
	for _, id := range g.Nodes() {
		if rounds, ok := txAt[id]; ok {
			progs[id] = &tourNode{id: id, rounds: rounds, horizon: horizon}
		} else if listeners[id] {
			progs[id] = &attachNode{id: id, horizon: horizon}
		} else {
			progs[id] = idle{}
		}
	}
	eng, err := radio.NewEngine(g, progs, cfg)
	if err != nil {
		return 0, err
	}
	r := eng.Run(horizon)
	if r.Collisions > 0 {
		return 0, fmt.Errorf("joinproto: tour collided %d times (single-transmitter invariant broken)", r.Collisions)
	}
	return r.Rounds, nil
}

// tourNode transmits "delete me" at its tour positions and listens
// otherwise. It honors the radio.Program contract (see joinproto.go).
type tourNode struct {
	id      graph.NodeID
	rounds  []int
	horizon int
	cur     int
}

// The assertion also opts tourNode into dynlint/progpurity's static
// contract check (node-local Act/Deliver, read-only Done).
var _ radio.Program = (*tourNode)(nil)

func (tn *tourNode) Act(round int) radio.Action {
	tn.cur = round
	for _, r := range tn.rounds {
		if r == round {
			return radio.TransmitOn(0, radio.Message{Seq: msgDelete, Depth: msgDelete, Src: tn.id})
		}
	}
	if round <= tn.horizon {
		return radio.ListenOn(0)
	}
	return radio.SleepAction()
}

func (tn *tourNode) Deliver(int, radio.Message) {}
func (tn *tourNode) Done() bool                 { return tn.cur >= tn.horizon }
