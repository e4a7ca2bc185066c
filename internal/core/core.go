// Package core is the public API of the library: a dynamic, self-organizing
// cluster-based sensor network (the paper's primary contribution) offering
//
//   - self-construction and self-reconfiguration via Join (node-move-in)
//     and Leave (node-move-out), with time-slot knowledge maintained
//     incrementally and every invariant machine-checkable via Verify;
//   - time- and energy-efficient broadcast: Improved Collision-Free
//     Flooding (Algorithm 2, the default), plain CFF (Algorithm 1) and the
//     depth-first-order baseline of [19], all executed on a collision-
//     accurate radio simulator with single or multiple channels;
//   - group multicast with relay-list pruning (MCNet);
//   - structural and protocol statistics matching the paper's figures.
//
// Typical use:
//
//	net, _ := core.Build(deployment.Graph(), core.Config{})
//	m, _ := net.Broadcast(net.Root(), broadcast.Options{})
//	fmt.Println(m)
package core

import (
	"fmt"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/gather"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/multicast"
	"dynsens/internal/radio"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

// Config tunes network construction.
type Config struct {
	// Root is the sink node ID (default 0).
	Root graph.NodeID
	// Policy selects parents during node-move-in (default lowest ID).
	Policy cnet.Policy
	// SlotCondition selects the l-slot interference model (default
	// strict; see DESIGN.md §5).
	SlotCondition timeslot.Condition
	// DeltaHook, when set, receives every topology mutation — including
	// the construction-time move-ins performed by Build — and stays
	// installed for later Join/Leave/RepairCrash calls. The flight
	// recorder uses this to capture churn history.
	DeltaHook func(cnet.Delta)
}

// Network is a dynamic cluster-based sensor network.
type Network struct {
	net    *cnet.CNet
	slots  *timeslot.Assignment
	groups *multicast.MCNet

	// structural accumulates the round cost of topology operations
	// (Theorems 2 and 3's knowledge-I and height parts).
	structural cnet.OpCost
}

// New creates a network containing only the sink.
func New(cfg Config) *Network {
	c := cnet.New(cfg.Root, cfg.Policy)
	c.SetDeltaHook(cfg.DeltaHook)
	return &Network{
		net:    c,
		slots:  timeslot.New(c, cfg.SlotCondition),
		groups: multicast.New(c),
	}
}

// Build constructs a network over an existing connected graph g by
// inserting every node via node-move-in in BFS order from the root.
func Build(g *graph.Graph, cfg Config) (*Network, error) {
	c, cost, err := cnet.BuildFromGraphObserved(g, cfg.Root, cfg.Policy, cfg.DeltaHook)
	if err != nil {
		return nil, err
	}
	n := &Network{
		net:    c,
		slots:  timeslot.New(c, cfg.SlotCondition),
		groups: multicast.New(c),
	}
	n.structural = cost
	return n, nil
}

// Deploy places n sensors on a side x side region of 100 m units with the
// paper's incremental connected placement (seeded), self-organizes them
// under cfg, and verifies every structural invariant. It is the one build
// step of the experiment sweeps, the scenario runner and the CLIs.
func Deploy(side, n int, seed int64, cfg Config) (*Network, *geom.Deployment, error) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, side, n))
	if err != nil {
		return nil, nil, err
	}
	net, err := Build(d.Graph(), cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := net.Verify(); err != nil {
		return nil, nil, fmt.Errorf("core: invariant violation (n=%d seed=%d): %w", n, seed, err)
	}
	return net, d, nil
}

// Root returns the sink.
func (n *Network) Root() graph.NodeID { return n.net.Root() }

// Size returns the number of nodes.
func (n *Network) Size() int { return n.net.Size() }

// Contains reports membership.
func (n *Network) Contains(id graph.NodeID) bool { return n.net.Contains(id) }

// Graph exposes the current connectivity graph (do not mutate).
func (n *Network) Graph() *graph.Graph { return n.net.Graph() }

// CNet exposes the cluster structure (do not mutate).
func (n *Network) CNet() *cnet.CNet { return n.net }

// Slots exposes the time-slot assignment (do not mutate).
func (n *Network) Slots() *timeslot.Assignment { return n.slots }

// Groups exposes the multicast group state.
func (n *Network) Groups() *multicast.MCNet { return n.groups }

// Join performs node-move-in: id joins hearing the given existing nodes.
func (n *Network) Join(id graph.NodeID, neighbors []graph.NodeID) error {
	_, cost, err := n.net.MoveIn(id, neighbors)
	if err != nil {
		return err
	}
	n.structural.Add(cost)
	if err := n.slots.OnJoin(id); err != nil {
		return fmt.Errorf("core: slot update after join of %d: %w", id, err)
	}
	return nil
}

// Leave performs node-move-out: id departs; the residual network must stay
// connected. Group memberships of re-inserted nodes are preserved.
func (n *Network) Leave(id graph.NodeID) error {
	rec, cost, err := n.net.MoveOut(id)
	if err != nil {
		return err
	}
	n.structural.Add(cost)
	if err := n.slots.OnMoveOut(rec); err != nil {
		return fmt.Errorf("core: slot update after leave of %d: %w", id, err)
	}
	n.groups.OnMoveOut(rec)
	return nil
}

// RepairCrash performs non-graceful repair after the given nodes crashed
// (no node-move-out possible): crashed subtrees are detached, surviving
// orphans re-attach where they can still hear the network, unreachable
// survivors are dropped, and time-slot/relay knowledge is repaired. A
// crashed sink is replaced and the structure rebuilt.
func (n *Network) RepairCrash(dead []graph.NodeID) (cnet.CrashRecord, error) {
	rec, cost, err := n.net.RemoveCrashed(dead)
	if err != nil {
		return cnet.CrashRecord{}, err
	}
	n.structural.Add(cost)
	if err := n.slots.OnCrash(rec); err != nil {
		return cnet.CrashRecord{}, fmt.Errorf("core: slot repair after crash: %w", err)
	}
	n.groups.OnCrash(rec)
	return rec, nil
}

// JoinGroup adds id to multicast group g.
func (n *Network) JoinGroup(id graph.NodeID, g int) error { return n.groups.JoinGroup(id, g) }

// LeaveGroup removes id from multicast group g.
func (n *Network) LeaveGroup(id graph.NodeID, g int) error { return n.groups.LeaveGroup(id, g) }

// Broadcast runs the paper's primary protocol (Improved CFF, Algorithm 2)
// from source and returns measured metrics.
func (n *Network) Broadcast(source graph.NodeID, opts broadcast.Options) (broadcast.Metrics, error) {
	return broadcast.RunICFF(n.slots, source, opts)
}

// BroadcastCFF runs Algorithm 1 (flooding the whole CNet).
func (n *Network) BroadcastCFF(source graph.NodeID, opts broadcast.Options) (broadcast.Metrics, error) {
	return broadcast.RunCFF(n.slots, source, opts)
}

// BroadcastDFO runs the depth-first-order baseline of [19].
func (n *Network) BroadcastDFO(source graph.NodeID, opts broadcast.Options) (broadcast.Metrics, error) {
	return broadcast.RunDFO(n.net, source, opts)
}

// Multicast runs the group multicast (Algorithm 2 with relay pruning).
func (n *Network) Multicast(g int, source graph.NodeID, opts broadcast.Options) (broadcast.Metrics, error) {
	return n.groups.Run(n.slots, g, source, opts)
}

// Gather runs a collision-free convergecast: every node contributes
// values[id] (missing entries contribute 0) and the sink receives the
// exact aggregate sum plus a reporting count. The g-slot schedule is
// recomputed for the current structure; the run goes under cfg.
func (n *Network) Gather(values map[graph.NodeID]int64, cfg radio.Config) (gather.Metrics, error) {
	s := gather.NewSchedule(n.net)
	if err := s.Verify(); err != nil {
		return gather.Metrics{}, err
	}
	return gather.Run(n.net, s, values, cfg)
}

// Verify machine-checks every invariant: cluster structure (Definition 1,
// Property 1), time-slot conditions and Lemma 3 bounds, and relay-list
// consistency.
func (n *Network) Verify() error {
	if err := n.net.Verify(); err != nil {
		return err
	}
	if err := n.slots.Verify(); err != nil {
		return err
	}
	if err := n.slots.CheckBounds(); err != nil {
		return err
	}
	return n.groups.Verify()
}

// Snapshot bundles structural and slot statistics (Figures 10 and 11) with
// accumulated maintenance costs.
type Snapshot struct {
	cnet.Stats
	// Delta is the largest l-time-slot; SmallDelta the largest b-time-slot.
	Delta      int
	SmallDelta int
	// BoundL and BoundB are the Lemma 3 upper bounds for them.
	BoundL int
	BoundB int
	// StructuralRounds is the accumulated cost of topology operations;
	// SlotRounds the accumulated time-slot maintenance cost.
	StructuralRounds int
	SlotRounds       int
}

// Stats computes the current snapshot.
func (n *Network) Stats() Snapshot {
	return Snapshot{
		Stats:            n.net.ComputeStats(),
		Delta:            n.slots.Delta(),
		SmallDelta:       n.slots.SmallDelta(),
		BoundL:           n.slots.BoundL(),
		BoundB:           n.slots.BoundB(),
		StructuralRounds: n.structural.Total(),
		SlotRounds:       n.slots.Rounds(),
	}
}
