package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Tree is a rooted tree maintained incrementally: leaves may be attached and
// detached, and whole subtrees enumerated. CNet(G) and BT(G) are Trees.
type Tree struct {
	root     NodeID
	parent   map[NodeID]NodeID
	children map[NodeID]map[NodeID]struct{}

	// depth holds every node's depth, stored when the node is attached (a
	// node's depth never changes while it stays in the tree), and
	// perDepth[d] counts the nodes at depth d, so Height is its last
	// index. The mutations update both for the nodes they attach or
	// detach; Depth, DepthMap and Height never rebuild them.
	depth    map[NodeID]int
	perDepth []int
	// childCache memoizes each node's sorted child slice, dropped per-node
	// on mutation; traversals (Subtree, EulerTour, broadcast schedules)
	// read it allocation-free.
	childCache map[NodeID][]NodeID
}

// NewTree returns a tree containing only root.
func NewTree(root NodeID) *Tree {
	t := &Tree{
		root:     root,
		parent:   make(map[NodeID]NodeID),
		children: make(map[NodeID]map[NodeID]struct{}),
		depth:    map[NodeID]int{root: 0},
		perDepth: []int{1},
	}
	t.children[root] = make(map[NodeID]struct{})
	return t
}

// Root returns the root node.
func (t *Tree) Root() NodeID { return t.root }

// Contains reports whether id is in the tree.
func (t *Tree) Contains(id NodeID) bool {
	_, ok := t.children[id]
	return ok
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return len(t.children) }

// AddChild attaches a new node under parent. It fails if parent is absent or
// the node already exists.
func (t *Tree) AddChild(id, parent NodeID) error {
	if t.Contains(id) {
		return fmt.Errorf("tree: node %d already present", id)
	}
	if !t.Contains(parent) {
		return fmt.Errorf("tree: parent %d not present", parent)
	}
	t.parent[id] = parent
	t.children[id] = make(map[NodeID]struct{})
	t.children[parent][id] = struct{}{}
	d := t.depth[parent] + 1
	t.depth[id] = d
	if d == len(t.perDepth) {
		t.perDepth = append(t.perDepth, 0)
	}
	t.perDepth[d]++
	delete(t.childCache, parent)
	return nil
}

// forget drops id's stored depth; the caller detaches id itself.
func (t *Tree) forget(id NodeID) {
	t.perDepth[t.depth[id]]--
	delete(t.depth, id)
	for t.perDepth[len(t.perDepth)-1] == 0 {
		t.perDepth = t.perDepth[:len(t.perDepth)-1]
	}
}

// RemoveLeaf detaches a childless non-root node. It fails otherwise.
func (t *Tree) RemoveLeaf(id NodeID) error {
	if !t.Contains(id) {
		return fmt.Errorf("tree: node %d not present", id)
	}
	if id == t.root {
		return fmt.Errorf("tree: cannot remove root %d as leaf", id)
	}
	if len(t.children[id]) != 0 {
		return fmt.Errorf("tree: node %d has children", id)
	}
	p := t.parent[id]
	delete(t.children[p], id)
	delete(t.parent, id)
	delete(t.children, id)
	t.forget(id)
	delete(t.childCache, p)
	delete(t.childCache, id)
	return nil
}

// RemoveSubtree detaches the whole subtree rooted at id (including id) and
// returns the removed nodes in preorder. Removing the root empties the tree
// except that the tree becomes unusable; callers re-rooting should build a
// fresh Tree instead.
func (t *Tree) RemoveSubtree(id NodeID) ([]NodeID, error) {
	if !t.Contains(id) {
		return nil, fmt.Errorf("tree: node %d not present", id)
	}
	if id == t.root {
		return nil, fmt.Errorf("tree: refusing to remove subtree at root; rebuild instead")
	}
	nodes := t.Subtree(id)
	p := t.parent[id]
	delete(t.children[p], id)
	for _, n := range nodes {
		delete(t.parent, n)
		delete(t.children, n)
		delete(t.childCache, n)
		t.forget(n)
	}
	delete(t.childCache, p)
	return nodes, nil
}

// Parent returns the parent of id, with ok=false for the root or absent
// nodes.
func (t *Tree) Parent(id NodeID) (NodeID, bool) {
	p, ok := t.parent[id]
	return p, ok
}

// Children returns the children of id in ascending order. The result is
// cached and shared until id's child set mutates: callers must not modify
// it (appending is safe — the cache is exactly sized, so append
// reallocates).
func (t *Tree) Children(id NodeID) []NodeID {
	if out, ok := t.childCache[id]; ok {
		return out
	}
	ch, ok := t.children[id]
	if !ok {
		return nil
	}
	out := make([]NodeID, 0, len(ch))
	for c := range ch {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if t.childCache == nil {
		t.childCache = make(map[NodeID][]NodeID, len(t.children))
	}
	t.childCache[id] = out
	return out
}

// IsLeaf reports whether id is present and has no children.
func (t *Tree) IsLeaf(id NodeID) bool {
	ch, ok := t.children[id]
	return ok && len(ch) == 0
}

// Nodes returns all nodes in ascending order.
func (t *Tree) Nodes() []NodeID {
	out := make([]NodeID, 0, len(t.children))
	for id := range t.children {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Leaves returns all childless nodes in ascending order.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	for id, ch := range t.children {
		if len(ch) == 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Depth returns the number of edges from the root to id, or -1 if absent.
// The root has depth 0 (the paper's "null" depth).
func (t *Tree) Depth(id NodeID) int {
	if d, ok := t.depth[id]; ok {
		return d
	}
	return -1
}

// DepthMap returns the depth of every node. The result is the tree's own
// live map: callers must not modify it, and it changes as the tree does,
// so read it within one call rather than hold it across a mutation.
func (t *Tree) DepthMap() map[NodeID]int { return t.depth }

// Height returns the maximum depth over all nodes (0 for a single node).
// This is the paper's h when applied to CNet(G) or BT(G).
func (t *Tree) Height() int { return len(t.perDepth) - 1 }

// SubtreeHeight returns the height of the subtree rooted at id (0 if id is
// a leaf), or -1 if id is absent.
func (t *Tree) SubtreeHeight(id NodeID) int {
	if !t.Contains(id) {
		return -1
	}
	h := 0
	depth := map[NodeID]int{id: 0}
	stack := []NodeID{id}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if depth[u] > h {
			h = depth[u]
		}
		for _, c := range t.Children(u) {
			depth[c] = depth[u] + 1
			stack = append(stack, c)
		}
	}
	return h
}

// Subtree returns the nodes of the subtree rooted at id in deterministic
// preorder (children visited in ascending order), or nil if absent.
func (t *Tree) Subtree(id NodeID) []NodeID {
	if !t.Contains(id) {
		return nil
	}
	// Presize only the whole tree: a subtree below the root grows as it is
	// walked, so listing a small subtree costs its size, not the tree's.
	var out []NodeID
	if id == t.root {
		out = make([]NodeID, 0, t.Size())
	}
	var walk func(NodeID)
	walk = func(u NodeID) {
		out = append(out, u)
		for _, c := range t.Children(u) {
			walk(c)
		}
	}
	walk(id)
	return out
}

// PathToRoot returns the node sequence id, parent(id), ..., root, or nil if
// id is absent.
func (t *Tree) PathToRoot(id NodeID) []NodeID {
	if !t.Contains(id) {
		return nil
	}
	var out []NodeID
	for {
		out = append(out, id)
		if id == t.root {
			return out
		}
		id = t.parent[id]
	}
}

// EulerTour returns the Eulerian tour of the tree starting and ending at
// start: the sequence of token holders where every tree edge is traversed
// exactly twice (once in each direction). For a tree with m edges reachable
// from start the tour has 2m+1 entries. This is the transmission schedule of
// the depth-first-order broadcast of [19] and of node-move-out.
func (t *Tree) EulerTour(start NodeID) []NodeID {
	if !t.Contains(start) {
		return nil
	}
	tour := make([]NodeID, 0, 2*t.Size()-1)
	var walk func(u NodeID, from NodeID, hasFrom bool)
	walk = func(u NodeID, from NodeID, hasFrom bool) {
		tour = append(tour, u)
		// Visit all tree-neighbors except the one we came from. Tree
		// neighbors are children plus parent so that tours may start at any
		// node, as node-move-out requires.
		for _, c := range t.Children(u) {
			if hasFrom && c == from {
				continue
			}
			walk(c, u, true)
			tour = append(tour, u)
		}
		if p, ok := t.Parent(u); ok && (!hasFrom || p != from) {
			walk(p, u, true)
			tour = append(tour, u)
		}
	}
	walk(start, 0, false)
	return tour
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		root:     t.root,
		parent:   make(map[NodeID]NodeID, len(t.parent)),
		children: make(map[NodeID]map[NodeID]struct{}, len(t.children)),
		depth:    maps.Clone(t.depth),
		perDepth: slices.Clone(t.perDepth),
	}
	for k, v := range t.parent {
		c.parent[k] = v
	}
	for k, v := range t.children {
		m := make(map[NodeID]struct{}, len(v))
		for n := range v {
			m[n] = struct{}{}
		}
		c.children[k] = m
	}
	return c
}

// AsGraph returns the tree's node/edge set as an undirected Graph.
func (t *Tree) AsGraph() *Graph {
	g := New()
	g.AddNode(t.root)
	for id, p := range t.parent {
		_ = g.AddEdge(id, p)
	}
	return g
}

// Validate checks structural consistency: parent/children agreement, a
// single root, and acyclicity (every node reaches the root).
func (t *Tree) Validate() error {
	if !t.Contains(t.root) {
		return fmt.Errorf("tree: root %d missing", t.root)
	}
	if _, ok := t.parent[t.root]; ok {
		return fmt.Errorf("tree: root %d has a parent", t.root)
	}
	for id := range t.children {
		if id == t.root {
			continue
		}
		p, ok := t.parent[id]
		if !ok {
			return fmt.Errorf("tree: non-root %d has no parent", id)
		}
		if _, ok := t.children[p][id]; !ok {
			return fmt.Errorf("tree: %d not registered as child of %d", id, p)
		}
	}
	for p, ch := range t.children {
		for c := range ch {
			if got, ok := t.parent[c]; !ok || got != p {
				return fmt.Errorf("tree: child %d of %d has parent %v", c, p, got)
			}
		}
	}
	// Reachability: every node's path to root must terminate.
	for id := range t.children {
		seen := make(map[NodeID]struct{})
		cur := id
		for cur != t.root {
			if _, dup := seen[cur]; dup {
				return fmt.Errorf("tree: cycle through %d", cur)
			}
			seen[cur] = struct{}{}
			p, ok := t.parent[cur]
			if !ok {
				return fmt.Errorf("tree: %d does not reach root", id)
			}
			cur = p
		}
	}
	return nil
}
