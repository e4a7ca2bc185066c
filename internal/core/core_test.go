package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynsens/internal/broadcast"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func buildNetwork(t testing.TB, seed int64, n int) *Network {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(d.Graph(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewSingleton(t *testing.T) {
	n := New(Config{Root: 7})
	if n.Root() != 7 || n.Size() != 1 || !n.Contains(7) {
		t.Fatal("singleton malformed")
	}
	if err := n.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndVerify(t *testing.T) {
	n := buildNetwork(t, 1, 100)
	if n.Size() != 100 {
		t.Fatalf("size = %d", n.Size())
	}
	if err := n.Verify(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Nodes != 100 || st.Delta <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Delta > st.BoundL || st.SmallDelta > st.BoundB {
		t.Fatalf("slots exceed Lemma 3 bounds: %+v", st)
	}
	if st.StructuralRounds <= 0 || st.SlotRounds <= 0 {
		t.Fatalf("maintenance costs missing: %+v", st)
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	g := graph.New()
	g.AddNode(0)
	g.AddNode(1)
	if _, err := Build(g, Config{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestJoinLeaveCycle(t *testing.T) {
	n := buildNetwork(t, 2, 50)
	// Join a node next to the root.
	anchor := n.Root()
	nbrs := append([]graph.NodeID{anchor}, n.Graph().Neighbors(anchor)...)
	if err := n.Join(1000, nbrs); err != nil {
		t.Fatal(err)
	}
	if !n.Contains(1000) || n.Size() != 51 {
		t.Fatal("join failed")
	}
	if err := n.Verify(); err != nil {
		t.Fatalf("after join: %v", err)
	}
	if err := n.Leave(1000); err != nil {
		t.Fatal(err)
	}
	if n.Contains(1000) || n.Size() != 50 {
		t.Fatal("leave failed")
	}
	if err := n.Verify(); err != nil {
		t.Fatalf("after leave: %v", err)
	}
}

func TestJoinErrors(t *testing.T) {
	n := New(Config{})
	if err := n.Join(1, nil); err == nil {
		t.Fatal("empty neighbors accepted")
	}
	if err := n.Leave(99); err == nil {
		t.Fatal("absent leave accepted")
	}
}

func TestBroadcastProtocols(t *testing.T) {
	n := buildNetwork(t, 3, 120)
	icff, err := n.Broadcast(n.Root(), broadcast.Options{})
	if err != nil || !icff.Completed {
		t.Fatalf("ICFF: %v %s", err, icff)
	}
	cff, err := n.BroadcastCFF(n.Root(), broadcast.Options{})
	if err != nil || !cff.Completed {
		t.Fatalf("CFF: %v %s", err, cff)
	}
	dfo, err := n.BroadcastDFO(n.Root(), broadcast.Options{})
	if err != nil || !dfo.Completed {
		t.Fatalf("DFO: %v %s", err, dfo)
	}
	if icff.ScheduleLen >= dfo.ScheduleLen {
		t.Fatalf("ICFF %d not faster than DFO %d", icff.ScheduleLen, dfo.ScheduleLen)
	}
}

func TestMulticastThroughFacade(t *testing.T) {
	n := buildNetwork(t, 4, 80)
	members := n.CNet().Members()
	if len(members) < 2 {
		t.Skip("too few members")
	}
	_ = n.JoinGroup(members[0], 1)
	_ = n.JoinGroup(members[1], 1)
	m, err := n.Multicast(1, n.Root(), broadcast.Options{})
	if err != nil || !m.Completed {
		t.Fatalf("multicast: %v %s", err, m)
	}
	if m.Audience != 2 {
		t.Fatalf("audience = %d", m.Audience)
	}
	if err := n.LeaveGroup(members[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsSurviveLeave(t *testing.T) {
	n := buildNetwork(t, 5, 60)
	members := n.CNet().Members()
	if len(members) < 2 {
		t.Skip("too few members")
	}
	target := members[0]
	_ = n.JoinGroup(target, 2)
	// Remove some other safe node; target's membership must survive even
	// if target gets re-inserted.
	rng := rand.New(rand.NewSource(5))
	nodes := n.CNet().Tree().Nodes()
	for k := 0; k < 10; k++ {
		victim := nodes[rng.Intn(len(nodes))]
		if victim == n.Root() || victim == target {
			continue
		}
		res := n.Graph().Clone()
		res.RemoveNode(victim)
		if !res.Connected() {
			continue
		}
		if err := n.Leave(victim); err != nil {
			t.Fatal(err)
		}
		break
	}
	if !n.Groups().InGroup(target, 2) {
		t.Fatal("membership lost across reconfiguration")
	}
	if err := n.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGatherThroughFacade(t *testing.T) {
	n := buildNetwork(t, 6, 90)
	values := make(map[graph.NodeID]int64)
	var want int64
	for _, id := range n.CNet().Tree().Nodes() {
		values[id] = 3
		want += 3
	}
	m, err := n.Gather(values, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sum != want || !m.Complete() {
		t.Fatalf("gather: %s want %d", m, want)
	}
	// Gathering after churn still works.
	victim, ok := safeVictimCore(n)
	if !ok {
		t.Skip("no safe victim")
	}
	if err := n.Leave(victim); err != nil {
		t.Fatal(err)
	}
	delete(values, victim)
	m2, err := n.Gather(values, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Complete() || m2.Sum != want-3 {
		t.Fatalf("gather after churn: %s", m2)
	}
}

func safeVictimCore(n *Network) (graph.NodeID, bool) {
	for _, id := range n.CNet().Tree().Nodes() {
		if id == n.Root() {
			continue
		}
		g := n.Graph().Clone()
		g.RemoveNode(id)
		if g.Connected() {
			return id, true
		}
	}
	return 0, false
}

func TestRepairCrash(t *testing.T) {
	n := buildNetwork(t, 7, 80)
	_ = n.JoinGroup(n.CNet().Tree().Nodes()[30], 1)
	// Crash three non-root nodes.
	var dead []graph.NodeID
	for _, id := range n.CNet().Tree().Nodes() {
		if id != n.Root() && len(dead) < 3 {
			dead = append(dead, id)
		}
	}
	rec, err := n.RepairCrash(dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Dead) != 3 {
		t.Fatalf("rec = %+v", rec)
	}
	for _, d := range dead {
		if n.Contains(d) {
			t.Fatalf("dead node %d present", d)
		}
	}
	if err := n.Verify(); err != nil {
		t.Fatalf("after crash repair: %v", err)
	}
	m, err := n.Broadcast(n.Root(), broadcast.Options{})
	if err != nil || !m.Completed {
		t.Fatalf("broadcast after repair: %v %s", err, m)
	}
}

func TestRepairCrashOfSink(t *testing.T) {
	n := buildNetwork(t, 8, 60)
	rec, err := n.RepairCrash([]graph.NodeID{n.Root()})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.RootReplaced {
		t.Fatalf("sink not replaced: %+v", rec)
	}
	if err := n.Verify(); err != nil {
		t.Fatal(err)
	}
	m, err := n.Broadcast(n.Root(), broadcast.Options{})
	if err != nil || !m.Completed {
		t.Fatalf("broadcast after sink replacement: %v %s", err, m)
	}
}

// Property: a random churn sequence (joins and safe leaves) preserves every
// invariant and broadcast completeness.
func TestChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := workload.PaperConfig(seed, 8, 30)
		base, events, err := workload.ChurnTrace(cfg, 12, 0.35)
		if err != nil {
			return false
		}
		net, err := Build(base.Graph(), Config{})
		if err != nil {
			return false
		}
		live := make(map[graph.NodeID]struct{ X, Y float64 })
		for i, p := range base.Pos {
			live[graph.NodeID(i)] = struct{ X, Y float64 }{p.X, p.Y}
		}
		for _, ev := range events {
			switch ev.Kind {
			case workload.Join:
				var nbrs []graph.NodeID
				for id, q := range live {
					dx, dy := ev.Pos.X-q.X, ev.Pos.Y-q.Y
					if dx*dx+dy*dy <= cfg.Range*cfg.Range {
						nbrs = append(nbrs, id)
					}
				}
				// Deterministic order for reproducibility.
				for i := 1; i < len(nbrs); i++ {
					for j := i; j > 0 && nbrs[j] < nbrs[j-1]; j-- {
						nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
					}
				}
				if err := net.Join(ev.Node, nbrs); err != nil {
					return false
				}
				live[ev.Node] = struct{ X, Y float64 }{ev.Pos.X, ev.Pos.Y}
			case workload.Leave:
				if err := net.Leave(ev.Node); err != nil {
					return false
				}
				delete(live, ev.Node)
			}
			if net.Verify() != nil {
				return false
			}
		}
		m, err := net.Broadcast(net.Root(), broadcast.Options{})
		return err == nil && m.Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
