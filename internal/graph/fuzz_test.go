package graph

import "testing"

// FuzzTreeOps drives a Tree through arbitrary add-leaf / remove-leaf /
// remove-subtree sequences decoded from fuzz bytes, validating structure
// after every mutation and checking Euler-tour and depth invariants, the
// depths against paths to the root, on the tree and on a mutated clone.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xF0, 3, 0xE0})
	f.Add([]byte{5, 5, 5, 5, 0xF1, 0xF2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		tr := NewTree(0)
		next := NodeID(1)
		for _, op := range ops {
			switch {
			case op < 0xE0:
				nodes := tr.Nodes()
				parent := nodes[int(op)%len(nodes)]
				if err := tr.AddChild(next, parent); err != nil {
					t.Fatalf("AddChild: %v", err)
				}
				next++
			case op < 0xF0:
				leaves := tr.Leaves()
				if len(leaves) == 0 || (len(leaves) == 1 && leaves[0] == tr.Root()) {
					continue
				}
				victim := leaves[int(op)%len(leaves)]
				if victim == tr.Root() {
					continue
				}
				if err := tr.RemoveLeaf(victim); err != nil {
					t.Fatalf("RemoveLeaf: %v", err)
				}
				checkDepths(t, tr, victim)
			default:
				nodes := tr.Nodes()
				victim := nodes[int(op)%len(nodes)]
				if victim == tr.Root() {
					continue
				}
				if _, err := tr.RemoveSubtree(victim); err != nil {
					t.Fatalf("RemoveSubtree: %v", err)
				}
				checkDepths(t, tr, victim)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			// Euler tour covers the tree with 2(n-1)+1 steps.
			tour := tr.EulerTour(tr.Root())
			if len(tour) != 2*(tr.Size()-1)+1 {
				t.Fatalf("tour length %d for size %d", len(tour), tr.Size())
			}
			checkDepths(t, tr, next)
			// A clone's mutations leave the original's depths alone: hang
			// a chain under the clone's deepest node, then cut the root's
			// first child away.
			want := tr.Height()
			cl := tr.Clone()
			deepest := tr.Root()
			for _, id := range tr.Nodes() {
				if tr.Depth(id) > tr.Depth(deepest) {
					deepest = id
				}
			}
			if err := cl.AddChild(next, deepest); err != nil {
				t.Fatalf("clone AddChild: %v", err)
			}
			if err := cl.AddChild(next+1, next); err != nil {
				t.Fatalf("clone AddChild: %v", err)
			}
			if ch := cl.Children(cl.Root()); len(ch) > 0 {
				if _, err := cl.RemoveSubtree(ch[0]); err != nil {
					t.Fatalf("clone RemoveSubtree: %v", err)
				}
			}
			checkDepths(t, cl, next+2)
			if tr.Height() != want {
				t.Fatalf("clone mutation moved the original's height %d to %d", want, tr.Height())
			}
			checkDepths(t, tr, next)
		}
	})
}

// checkDepths checks the stored depths against an independent oracle:
// every node's Depth and DepthMap entry is its path length to the root,
// Height is the largest of them, and absent (an ID not in the tree) has
// depth -1.
func checkDepths(t *testing.T, tr *Tree, absent NodeID) {
	t.Helper()
	depths := tr.DepthMap()
	if len(depths) != tr.Size() {
		t.Fatalf("DepthMap holds %d nodes, tree %d", len(depths), tr.Size())
	}
	maxD := 0
	for _, id := range tr.Nodes() {
		want := len(tr.PathToRoot(id)) - 1
		if tr.Depth(id) != want || depths[id] != want {
			t.Fatalf("node %d: Depth %d, DepthMap %d, path to root %d", id, tr.Depth(id), depths[id], want)
		}
		maxD = max(maxD, want)
	}
	if tr.Height() != maxD {
		t.Fatalf("height %d vs max depth %d", tr.Height(), maxD)
	}
	if d := tr.Depth(absent); d != -1 {
		t.Fatalf("absent node %d has depth %d", absent, d)
	}
}
