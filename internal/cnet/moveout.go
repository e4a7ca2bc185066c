package cnet

import (
	"fmt"
	"sort"

	"dynsens/internal/graph"
)

// MoveOutRecord describes what a node-move-out did, so higher layers (time
// slots, multicast lists) can update their knowledge.
type MoveOutRecord struct {
	// Removed is the departed node (the paper's lev).
	Removed graph.NodeID
	// Parent is lev's CNet parent at departure; unset when lev was the
	// root.
	Parent graph.NodeID
	// Neighbors are the g-neighbors lev had at departure.
	Neighbors []graph.NodeID
	// Reinserted lists the nodes of the detached subtree T \ {lev} in the
	// order they were moved back into H via node-move-in.
	Reinserted []graph.NodeID
	// RootChanged is true when lev was the root; NewRoot is then the
	// replacement sink.
	RootChanged bool
	NewRoot     graph.NodeID
}

// MoveOut performs node-move-out (Section 5.2): node lev leaves the network.
// The subtree T rooted at lev is detached and its nodes are re-inserted into
// the remaining structure H one at a time via node-move-in, each at a moment
// when it has a neighbor already in the network (the paper finds such an
// order with an Eulerian tour on T). The residual graph must be connected,
// matching the paper's assumption.
//
// When lev is the root — the case the paper defers to its full version — the
// policy picks a replacement root among lev's neighbors and the whole
// structure is rebuilt from it (see DESIGN.md).
//
// The returned cost follows Theorem 3: the Euler-tour/bookkeeping part plus
// one node-move-in cost per re-inserted node.
func (c *CNet) MoveOut(lev graph.NodeID) (MoveOutRecord, OpCost, error) {
	if !c.Contains(lev) {
		return MoveOutRecord{}, OpCost{}, fmt.Errorf("cnet: node %d not present", lev)
	}
	if c.Size() == 1 {
		return MoveOutRecord{}, OpCost{}, fmt.Errorf("cnet: refusing to remove the last node %d", lev)
	}
	if c.disconnects(lev) {
		return MoveOutRecord{}, OpCost{}, fmt.Errorf("cnet: removing %d disconnects the network", lev)
	}

	// Copy the adjacency out of the graph's shared neighbor cache: the
	// record outlives the removal below.
	rec := MoveOutRecord{Removed: lev, Neighbors: append([]graph.NodeID(nil), c.g.Neighbors(lev)...)}
	rec.Parent, _ = c.tree.Parent(lev)
	var cost OpCost

	if lev == c.tree.Root() {
		rec, cost, err := c.moveOutRoot(lev, rec)
		if err == nil {
			c.countMoveOut(rec)
		}
		return rec, cost, err
	}

	// Detach subtree T and forget its nodes' statuses; keep their edges in
	// G (they have not physically moved).
	subtree, err := c.tree.RemoveSubtree(lev)
	if err != nil {
		return MoveOutRecord{}, OpCost{}, err
	}
	pending := make(map[graph.NodeID]struct{}, len(subtree)-1)
	for _, x := range subtree {
		delete(c.status, x)
		if x != lev {
			pending[x] = struct{}{}
		}
	}
	c.g.RemoveNode(lev)

	// Step 0/1 bookkeeping: lev announces departure along the path to the
	// root (height updates) and an Euler tour over T finds the re-entry
	// edge and drives deletions; charge 2h + 2|T| rounds.
	cost.HeightUpdate = 2 * c.tree.Height()
	cost.Discovery = 2 * len(subtree)

	// Step 2: move the nodes of T back in, each when it can hear the
	// current network. Deterministic: lowest-ID eligible node first.
	for len(pending) > 0 {
		moved := false
		for _, x := range sortedKeys(pending) {
			nbrs := c.currentNeighbors(x)
			if len(nbrs) == 0 {
				continue
			}
			if _, mcost, err := c.MoveIn(x, nbrs); err != nil {
				return MoveOutRecord{}, OpCost{}, fmt.Errorf("cnet: re-inserting %d: %w", x, err)
			} else {
				cost.Add(mcost)
			}
			rec.Reinserted = append(rec.Reinserted, x)
			delete(pending, x)
			moved = true
			break
		}
		if !moved {
			// Unreachable given residual connectivity.
			return MoveOutRecord{}, OpCost{}, fmt.Errorf("cnet: stranded subtree nodes %v after removing %d", sortedKeys(pending), lev)
		}
	}
	c.countMoveOut(rec)
	return rec, cost, nil
}

// disconnects reports whether removing lev splits G. G is connected at
// every operation boundary (MoveIn requires a neighbor, MoveOut refuses to
// disconnect, RemoveCrashed drops unreachable survivors), so every node of
// G-lev reaches some neighbor of lev without passing through lev, and G-lev
// is connected exactly when lev's neighbors reach each other in it. The
// search starts at one neighbor, never enters lev, and stops once it has
// met all the others, so a removable node costs its surroundings, not n.
func (c *CNet) disconnects(lev graph.NodeID) bool {
	nbrs := c.g.Neighbors(lev)
	if len(nbrs) < 2 {
		return false
	}
	unmet := len(nbrs) - 1
	seen := map[graph.NodeID]struct{}{lev: {}, nbrs[0]: {}}
	queue := []graph.NodeID{nbrs[0]}
	for head := 0; head < len(queue); head++ {
		for _, v := range c.g.Neighbors(queue[head]) {
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = struct{}{}
			if c.g.HasEdge(v, lev) {
				if unmet--; unmet == 0 {
					return false
				}
			}
			queue = append(queue, v)
		}
	}
	return true
}

// moveOutRoot handles departure of the sink: a replacement root is elected
// among its neighbors and the entire structure is rebuilt from it by
// incremental insertion over the residual graph.
func (c *CNet) moveOutRoot(lev graph.NodeID, rec MoveOutRecord) (MoveOutRecord, OpCost, error) {
	newRoot := c.policy(c.g.Neighbors(lev))
	c.g.RemoveNode(lev)

	rebuilt := New(newRoot, c.policy)
	rebuilt.instr = c.instr // rebuild move-ins count like any other
	rebuilt.deltaHook = c.deltaHook
	// Preserve G: copy all residual nodes/edges as they join.
	order := c.g.BFS(newRoot).Order
	var cost OpCost
	for _, x := range order[1:] {
		var nbrs []graph.NodeID
		for _, n := range c.g.Neighbors(x) {
			if rebuilt.Contains(n) {
				nbrs = append(nbrs, n)
			}
		}
		if _, mcost, err := rebuilt.MoveIn(x, nbrs); err != nil {
			return MoveOutRecord{}, OpCost{}, fmt.Errorf("cnet: rebuilding after root departure, node %d: %w", x, err)
		} else {
			cost.Add(mcost)
		}
		rec.Reinserted = append(rec.Reinserted, x)
	}
	cost.Discovery += 2 * (len(order) + 1) // tour + election bookkeeping

	c.g = rebuilt.g
	c.tree = rebuilt.tree
	c.status = rebuilt.status
	rec.RootChanged = true
	rec.NewRoot = newRoot
	return rec, cost, nil
}

// currentNeighbors returns x's g-neighbors that are currently members of
// the CNet (i.e. have a status).
func (c *CNet) currentNeighbors(x graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, n := range c.g.Neighbors(x) {
		if c.Contains(n) {
			out = append(out, n)
		}
	}
	return out
}

func sortedKeys(m map[graph.NodeID]struct{}) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
