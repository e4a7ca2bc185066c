package timeslot

import (
	"testing"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
)

// FuzzUpdateTimeSlot drives the incremental slot-update procedures
// (Algorithm 3's OnJoin, OnMoveOut, OnCrash) through arbitrary
// join/leave/crash sequences decoded from fuzz bytes, in both condition
// modes, and asserts collision-freedom (the Time-Slot Conditions, via
// Verify) and the Lemma 3 size bounds after every single step — the
// paper's claim is precisely that the conditions are an invariant of the
// update procedures, not just of bulk construction. A second assignment
// kept by the full-scan reference runs in lockstep and must hold the same
// slots, rounds and recalculation count after every step.
func FuzzUpdateTimeSlot(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(byte(1), []byte{0, 0, 0, 0x85, 1, 1, 0x90, 2})
	f.Add(byte(0), []byte{7, 3, 0xff, 5, 0x80, 9, 0xa0, 2, 2, 0xc0})
	f.Add(byte(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xe3, 9, 10, 0xe0, 11, 0xe7})
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		cond := ConditionStrict
		if mode%2 == 1 {
			cond = ConditionPaper
		}
		c := cnet.New(0, nil)
		a := New(c, cond)
		ref, err := newFullScan(c, cond)
		if err != nil {
			t.Fatal(err)
		}
		next := graph.NodeID(1)
		for _, op := range ops {
			var errA, errRef error
			switch {
			case op < 0x80 || c.Size() <= 2:
				// Join next to an anchor selected by op, plus a subset of
				// the anchor's neighbors so degrees keep growing.
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
				errA, errRef = a.OnJoin(next), ref.fullScanOnJoin(next)
				next++
			case op < 0xe0:
				// Leave a safe (non-root, non-cut) node chosen from op.
				nodes := c.Tree().Nodes()
				cut := c.Graph().ArticulationPoints()
				removed := false
				for k := 0; k < len(nodes); k++ {
					cand := nodes[(int(op)+k)%len(nodes)]
					if cand == c.Root() || cut[cand] {
						continue
					}
					rec, _, err := c.MoveOut(cand)
					if err != nil {
						t.Fatalf("leave %d: %v", cand, err)
					}
					errA, errRef = a.OnMoveOut(rec), ref.fullScanOnMoveOut(rec)
					removed = true
					break
				}
				if !removed {
					continue
				}
			default:
				// Crash the node op selects, the sink included; survivors
				// that no longer hear the network are dropped.
				nodes := c.Tree().Nodes()
				rec, _, err := c.RemoveCrashed([]graph.NodeID{nodes[int(op)%len(nodes)]})
				if err != nil {
					t.Fatalf("crash: %v", err)
				}
				errA, errRef = a.OnCrash(rec), ref.fullScanOnCrash(rec)
			}
			if errA != nil || errRef != nil {
				t.Fatalf("slot update: worklist %v, full scan %v", errA, errRef)
			}
			if err := sameAsFullScan(a, ref); err != nil {
				t.Fatalf("against the full scan: %v", err)
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("collision-freedom after step: %v", err)
			}
			if err := a.CheckBounds(); err != nil {
				t.Fatalf("lemma 3 bounds after step: %v", err)
			}
		}
	})
}
