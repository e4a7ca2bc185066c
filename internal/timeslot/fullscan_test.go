package timeslot

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/workload"
)

// This file keeps the reference for the worklist repair: repair as a scan
// of every receiver of every kind on every pass, and the update handlers
// as they drove it, with ensure run on every node after a move-out. The
// reference shares Procedure 1 (calculate), ensure and Algorithm 3 (join)
// with the package and ignores the worklist those mark.

// newFullScan returns an assignment for net kept by the reference
// handlers.
func newFullScan(net *cnet.CNet, cond Condition) (*Assignment, error) {
	a := &Assignment{net: net, cond: cond, slot: make(map[Kind]map[graph.NodeID]int)}
	return a, a.fullScanAssignAll()
}

// fullScanRepair re-checks every receiver of every kind, in ascending ID
// order, until a pass recalculates nothing.
func (a *Assignment) fullScanRepair() error {
	defer func() { a.dirty = [len(kinds)]dirtySet{} }()
	limit := 3*a.net.Size() + 10
	for iter := 0; iter < limit; iter++ {
		fixed := false
		for _, k := range kinds {
			for _, v := range a.net.Tree().Nodes() {
				if !a.IsReceiver(k, v) || a.conditionHolds(k, v) {
					continue
				}
				set := a.InterferenceSet(k, v)
				if len(set) == 0 {
					return fmt.Errorf("timeslot: receiver %d hears no %v transmitter", v, k)
				}
				target := set[0]
				if p, ok := a.net.Tree().Parent(v); ok {
					for _, t := range set {
						if t == p {
							target = p
							break
						}
					}
				}
				a.calculate(k, target)
				fixed = true
			}
		}
		if !fixed {
			return nil
		}
	}
	return fmt.Errorf("timeslot: repair did not converge within %d iterations", limit)
}

func (a *Assignment) fullScanAssignAll() error {
	a.assignTopDown()
	return a.fullScanRepair()
}

func (a *Assignment) fullScanOnJoin(id graph.NodeID) error {
	if err := a.join(id); err != nil {
		return err
	}
	return a.fullScanRepair()
}

// ensureEveryNode runs ensure on every node, ascending.
func (a *Assignment) ensureEveryNode() {
	for _, id := range a.net.Tree().Nodes() {
		for _, k := range kinds {
			a.ensure(k, id)
		}
	}
}

func (a *Assignment) fullScanOnMoveOut(rec cnet.MoveOutRecord) error {
	if rec.RootChanged {
		return a.fullScanAssignAll()
	}
	for _, k := range kinds {
		delete(a.slot[k], rec.Removed)
		for _, x := range rec.Reinserted {
			delete(a.slot[k], x)
		}
	}
	a.ensureEveryNode()
	for _, x := range rec.Reinserted {
		if err := a.fullScanOnJoin(x); err != nil {
			return err
		}
	}
	return a.fullScanRepair()
}

func (a *Assignment) fullScanOnCrash(rec cnet.CrashRecord) error {
	if rec.RootReplaced {
		return a.fullScanAssignAll()
	}
	tr := a.net.Tree()
	for _, k := range kinds {
		for id := range a.slot[k] {
			if !tr.Contains(id) {
				delete(a.slot[k], id)
			}
		}
	}
	a.ensureEveryNode()
	for _, x := range rec.Reinserted {
		if err := a.fullScanOnJoin(x); err != nil {
			return err
		}
	}
	return a.fullScanRepair()
}

// sameAsFullScan reports the first difference between an assignment and
// the reference kept over the same CNet.
func sameAsFullScan(a, ref *Assignment) error {
	for _, k := range kinds {
		if !maps.Equal(a.slot[k], ref.slot[k]) {
			return fmt.Errorf("%v slots differ:\n  worklist  %v\n  full scan %v", k, a.slot[k], ref.slot[k])
		}
	}
	if a.Rounds() != ref.Rounds() || a.Recalcs() != ref.Recalcs() {
		return fmt.Errorf("rounds/recalcs %d/%d, full scan %d/%d", a.Rounds(), a.Recalcs(), ref.Rounds(), ref.Recalcs())
	}
	return nil
}

// TestDirtySetPassOrder pins the order the worklist drains in, the order a
// full scan meets receivers: a pass yields its receivers once each,
// ascending; a receiver marked during the pass above the one being checked
// joins it, and one marked at or below it waits for the next pass.
func TestDirtySetPassOrder(t *testing.T) {
	var d dirtySet
	drain := func(during func(graph.NodeID)) []graph.NodeID {
		var got []graph.NodeID
		d.begin()
		for v, ok := d.pop(); ok; v, ok = d.pop() {
			got = append(got, v)
			during(v)
		}
		return got
	}
	for _, v := range []graph.NodeID{9, 3, 7, 3, 5} {
		d.mark(v)
	}
	first := drain(func(v graph.NodeID) {
		if v == 5 {
			for _, m := range []graph.NodeID{8, 4, 5, 9, 6} {
				d.mark(m)
			}
		}
	})
	second := drain(func(graph.NodeID) {})
	third := drain(func(graph.NodeID) {})
	if fmt.Sprint(first, second, third) != "[3 5 6 7 8 9] [4 5] []" {
		t.Fatalf("passes %v %v %v, want [3 5 6 7 8 9] [4 5] []", first, second, third)
	}
}

// TestRepairMatchesFullScan drives two assignments of one CNet in lockstep
// over seeded unit-disk networks, in both condition modes: one kept by the
// package's handlers, one by the full-scan reference. Joins, leaves of any
// removable node (internal ones re-insert their subtrees, the sink's
// rebuilds) and crashes (the sink's among them) must leave both with the
// same slots, maintenance rounds and recalculation count after every op.
func TestRepairMatchesFullScan(t *testing.T) {
	const seeds, ops = 40, 150
	for seed := int64(1); seed <= seeds; seed++ {
		for _, cond := range []Condition{ConditionStrict, ConditionPaper} {
			if err := churnAgainstFullScan(seed, cond, ops); err != nil {
				t.Fatalf("seed %d cond %d: %v", seed, cond, err)
			}
		}
	}
}

func churnAgainstFullScan(seed int64, cond Condition, ops int) error {
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 3, 60))
	if err != nil {
		return err
	}
	c, _, err := cnet.BuildFromGraph(d.Graph(), 0, nil)
	if err != nil {
		return err
	}
	a := New(c, cond)
	ref, err := newFullScan(c, cond)
	if err != nil {
		return err
	}
	if err := sameAsFullScan(a, ref); err != nil {
		return fmt.Errorf("after construction: %w", err)
	}
	pos := make(map[graph.NodeID][2]float64, len(d.Pos))
	for i, p := range d.Pos {
		pos[graph.NodeID(i)] = [2]float64{p.X, p.Y}
	}
	rng := rand.New(rand.NewSource(seed))
	next := graph.NodeID(len(d.Pos))
	for i := 0; i < ops; i++ {
		var what string
		var errA, errRef error
		switch r := rng.Float64(); {
		case r < 0.45 || c.Size() < 20:
			// Join at a random point that hears the network.
			p := [2]float64{rng.Float64() * d.Region.Width, rng.Float64() * d.Region.Height}
			var nbrs []graph.NodeID
			for _, id := range c.Tree().Nodes() {
				dx, dy := p[0]-pos[id][0], p[1]-pos[id][1]
				if dx*dx+dy*dy <= d.Range*d.Range {
					nbrs = append(nbrs, id)
				}
			}
			if len(nbrs) == 0 {
				continue
			}
			what = fmt.Sprintf("join %d", next)
			if _, _, err := c.MoveIn(next, nbrs); err != nil {
				return fmt.Errorf("op %d %s: %w", i, what, err)
			}
			pos[next] = p
			errA, errRef = a.OnJoin(next), ref.fullScanOnJoin(next)
			next++
		case r < 0.9:
			// Leave: a removable node, an internal one half the time.
			cut := c.Graph().ArticulationPoints()
			var leaves, internal []graph.NodeID
			for _, id := range c.Tree().Nodes() {
				switch {
				case cut[id]:
				case c.Tree().IsLeaf(id):
					leaves = append(leaves, id)
				default:
					internal = append(internal, id)
				}
			}
			pick := leaves
			if len(internal) > 0 && (rng.Intn(2) == 0 || len(leaves) == 0) {
				pick = internal
			}
			if len(pick) == 0 {
				continue
			}
			lev := pick[rng.Intn(len(pick))]
			what = fmt.Sprintf("leave %d", lev)
			rec, _, err := c.MoveOut(lev)
			if err != nil {
				return fmt.Errorf("op %d %s: %w", i, what, err)
			}
			delete(pos, lev)
			errA, errRef = a.OnMoveOut(rec), ref.fullScanOnMoveOut(rec)
		default:
			// Crash one or two nodes; one crash in four takes the sink.
			nodes := c.Tree().Nodes()
			dead := []graph.NodeID{nodes[1+rng.Intn(len(nodes)-1)]}
			if rng.Intn(4) == 0 {
				dead[0] = c.Root()
			}
			if extra := nodes[rng.Intn(len(nodes))]; rng.Intn(2) == 0 && extra != dead[0] {
				dead = append(dead, extra)
			}
			what = fmt.Sprintf("crash %v", dead)
			rec, _, err := c.RemoveCrashed(dead)
			if err != nil {
				return fmt.Errorf("op %d %s: %w", i, what, err)
			}
			for _, id := range append(rec.Dead, rec.Dropped...) {
				delete(pos, id)
			}
			errA, errRef = a.OnCrash(rec), ref.fullScanOnCrash(rec)
		}
		if errA != nil || errRef != nil {
			return fmt.Errorf("op %d %s: worklist %v, full scan %v", i, what, errA, errRef)
		}
		if err := sameAsFullScan(a, ref); err != nil {
			return fmt.Errorf("op %d %s: %w", i, what, err)
		}
		if err := a.Verify(); err != nil {
			return fmt.Errorf("op %d %s: %w", i, what, err)
		}
	}
	return nil
}
