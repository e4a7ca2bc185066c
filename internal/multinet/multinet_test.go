package multinet

import (
	"testing"
	"testing/quick"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func buildGraph(t testing.TB, seed int64, n int) *graph.Graph {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
	if err != nil {
		t.Fatal(err)
	}
	return d.Graph()
}

func TestBuildMultipleNets(t *testing.T) {
	g := buildGraph(t, 1, 60)
	m, err := Build(g, []graph.NodeID{0, 5, 10}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nets()) != 3 || m.Size() != 60 {
		t.Fatalf("nets=%d size=%d", len(m.Nets()), m.Size())
	}
	roots := m.Roots()
	if roots[0] != 0 || roots[1] != 5 || roots[2] != 10 {
		t.Fatalf("roots = %v", roots)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	g := buildGraph(t, 1, 20)
	if _, err := Build(g, nil, core.Config{}); err == nil {
		t.Fatal("no roots accepted")
	}
	if _, err := Build(g, []graph.NodeID{0, 0}, core.Config{}); err == nil {
		t.Fatal("duplicate roots accepted")
	}
	if _, err := Build(g, []graph.NodeID{999}, core.Config{}); err == nil {
		t.Fatal("absent root accepted")
	}
}

func TestJoinLeavePropagate(t *testing.T) {
	g := buildGraph(t, 2, 40)
	m, err := Build(g, []graph.NodeID{0, 1}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nbrs := append([]graph.NodeID{0}, g.Neighbors(0)...)
	if err := m.Join(500, nbrs); err != nil {
		t.Fatal(err)
	}
	for _, n := range m.Nets() {
		if !n.Contains(500) {
			t.Fatalf("net rooted at %d missed the join", n.Root())
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.Leave(500); err != nil {
		t.Fatal(err)
	}
	for _, n := range m.Nets() {
		if n.Contains(500) {
			t.Fatalf("net rooted at %d missed the leave", n.Root())
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveSinkRejected(t *testing.T) {
	g := buildGraph(t, 2, 30)
	m, err := Build(g, []graph.NodeID{0, 1}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Leave(1); err == nil {
		t.Fatal("sink departure accepted")
	}
}

func TestBroadcastNoFailures(t *testing.T) {
	g := buildGraph(t, 3, 80)
	m, err := Build(g, []graph.NodeID{0, 7}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Broadcast(0, broadcast.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attempts) != 1 || res.Used != 0 {
		t.Fatalf("unexpected failover: %+v", res)
	}
	if !res.Final().Completed {
		t.Fatalf("primary broadcast incomplete: %s", res.Final())
	}
}

func TestFailoverOnSinkDeath(t *testing.T) {
	g := buildGraph(t, 4, 100)
	// Two sinks; pick a source that is neither.
	m, err := Build(g, []graph.NodeID{0, 1}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var source graph.NodeID = 50
	// Primary sink dies immediately.
	opts := broadcast.Options{Config: radio.Config{Failures: []broadcast.NodeFailure{{Node: 0, Round: 1}}}}
	res, err := m.Broadcast(source, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attempts) < 2 {
		t.Fatalf("no failover attempted: %+v", res)
	}
	if res.Used == 0 {
		t.Fatalf("dead primary selected: %+v", res)
	}
	// The primary attempt loses the sink mid-preamble; partial flooding
	// from the preamble path still reaches some nodes, but far from all.
	if res.Attempts[0].Completed {
		t.Fatalf("primary attempt completed despite dead sink: %s", res.Attempts[0])
	}
	// The secondary cluster-net reaches the bulk of the network (node 0
	// may also have been a relay there, costing it part of a subtree).
	final := res.Final()
	if final.Received < 60 {
		t.Fatalf("secondary delivered only %d/100: %s", final.Received, final)
	}
	if res.Attempts[0].Received >= final.Received {
		t.Fatalf("primary attempt delivered %d >= secondary %d",
			res.Attempts[0].Received, final.Received)
	}
}

// Property: multi-net construction over random deployments verifies on all
// roots and the no-failure broadcast uses the primary.
func TestMultiNetProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 5
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
		if err != nil {
			return false
		}
		g := d.Graph()
		roots := []graph.NodeID{0, graph.NodeID(n / 2)}
		if roots[1] == roots[0] {
			roots = roots[:1]
		}
		m, err := Build(g, roots, core.Config{})
		if err != nil {
			return false
		}
		if m.Verify() != nil {
			return false
		}
		res, err := m.Broadcast(0, broadcast.Options{})
		return err == nil && res.Used == 0 && res.Final().Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
