package cnet_test

import (
	"testing"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/timeslot"
)

// FuzzChurn drives a CNet (with live slot assignment) through an arbitrary
// op sequence decoded from fuzz bytes: each byte either joins a new node
// next to an existing anchor or removes a safe node. Every invariant is
// re-checked after every operation.
func FuzzChurn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 4, 0x81, 5})
	f.Add([]byte{10, 20, 30, 0x90, 0x91, 40, 50, 0x92, 0x93, 0x94})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		c := cnet.New(0, nil)
		a := timeslot.New(c, timeslot.ConditionStrict)
		next := graph.NodeID(1)
		for _, op := range ops {
			if op < 0x80 || c.Size() <= 2 {
				// Join: anchor selected by op among current nodes, plus
				// every neighbor of the anchor to keep degrees growing.
				nodes := c.Tree().Nodes()
				anchor := nodes[int(op)%len(nodes)]
				nbrs := []graph.NodeID{anchor}
				for i, nb := range c.Graph().Neighbors(anchor) {
					if i%2 == int(op)%2 {
						nbrs = append(nbrs, nb)
					}
				}
				if _, _, err := c.MoveIn(next, nbrs); err != nil {
					t.Fatalf("join %d: %v", next, err)
				}
				if err := a.OnJoin(next); err != nil {
					t.Fatalf("slots after join %d: %v", next, err)
				}
				next++
			} else {
				// Leave: pick a safe victim deterministically from op.
				nodes := c.Tree().Nodes()
				removed := false
				for k := 0; k < len(nodes); k++ {
					cand := nodes[(int(op)+k)%len(nodes)]
					if cand == c.Root() {
						continue
					}
					res := c.Graph().Clone()
					res.RemoveNode(cand)
					if !res.Connected() {
						continue
					}
					rec, _, err := c.MoveOut(cand)
					if err != nil {
						t.Fatalf("leave %d: %v", cand, err)
					}
					if err := a.OnMoveOut(rec); err != nil {
						t.Fatalf("slots after leave %d: %v", cand, err)
					}
					removed = true
					break
				}
				if !removed {
					continue
				}
			}
			if err := c.Verify(); err != nil {
				t.Fatalf("structure: %v", err)
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("slots: %v", err)
			}
			if err := a.CheckBounds(); err != nil {
				t.Fatalf("bounds: %v", err)
			}
		}
	})
}
