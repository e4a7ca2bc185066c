package gather

import (
	"testing"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

func TestHeartbeatAllAlive(t *testing.T) {
	net := buildNet(t, 11, 60)
	s := NewSchedule(net)
	rep, err := Heartbeat(net, s, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 0 {
		t.Fatalf("false positives: %v", rep.Missing)
	}
	if rep.Rounds <= 0 {
		t.Fatalf("rounds = %d", rep.Rounds)
	}
}

func TestHeartbeatDetectsDeadChild(t *testing.T) {
	net := buildNet(t, 12, 60)
	s := NewSchedule(net)
	// Kill a child of the root before the epoch starts.
	children := net.Tree().Children(net.Root())
	if len(children) == 0 {
		t.Skip("root has no children")
	}
	victim := children[0]
	rep, err := Heartbeat(net, s, radio.Config{Failures: []radio.NodeFailure{{Node: victim, Round: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	suspects := rep.Suspects()
	found := false
	for _, sID := range suspects {
		if sID == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim %d not detected; suspects %v", victim, suspects)
	}
	// The victim's parent is the reporter.
	ms := rep.Missing[net.Root()]
	if len(ms) == 0 {
		t.Fatalf("root reported nothing: %v", rep.Missing)
	}
}

func TestHeartbeatDeadParentDoesNotReport(t *testing.T) {
	net := buildNet(t, 13, 80)
	s := NewSchedule(net)
	// Find an internal non-root node and kill it: it must appear as
	// missing at ITS parent, and its own live children must not be
	// reported by it (it is dead).
	var victim graph.NodeID
	found := false
	for _, id := range net.Tree().Nodes() {
		if id != net.Root() && !net.Tree().IsLeaf(id) {
			victim, found = id, true
			break
		}
	}
	if !found {
		t.Skip("no internal node")
	}
	rep, err := Heartbeat(net, s, radio.Config{Failures: []radio.NodeFailure{{Node: victim, Round: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, reported := rep.Missing[victim]; reported {
		t.Fatal("dead parent filed a report")
	}
	parent, _ := net.Tree().Parent(victim)
	foundVictim := false
	for _, m := range rep.Missing[parent] {
		if m == victim {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Fatalf("parent %d did not report dead child %d: %v", parent, victim, rep.Missing)
	}
}

// TestHeartbeatReportsPerf checks the heartbeat epoch folds into a shared
// radio.Perf like every other engine run.
func TestHeartbeatReportsPerf(t *testing.T) {
	net := buildNet(t, 3, 60)
	perf := radio.NewPerf()
	rep, err := Heartbeat(net, NewSchedule(net), radio.Config{Perf: perf})
	if err != nil {
		t.Fatal(err)
	}
	snap := perf.Snapshot()
	if snap.Runs != 1 || snap.Rounds != int64(rep.Rounds) {
		t.Fatalf("perf runs=%d rounds=%d, want 1 run of %d rounds", snap.Runs, snap.Rounds, rep.Rounds)
	}
}
