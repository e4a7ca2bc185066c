package gather

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func buildNet(t testing.TB, seed int64, n int) *cnet.CNet {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := cnet.BuildFromGraph(d.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScheduleVerifies(t *testing.T) {
	for _, n := range []int{2, 20, 120} {
		net := buildNet(t, int64(n), n)
		s := NewSchedule(net)
		if err := s.Verify(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.MaxSlot() <= 0 {
			t.Fatalf("n=%d: max slot %d", n, s.MaxSlot())
		}
		if s.Slot(net.Root()) != 0 {
			t.Fatal("root holds a g-slot")
		}
	}
}

func TestGatherExactSum(t *testing.T) {
	net := buildNet(t, 7, 100)
	s := NewSchedule(net)
	rng := rand.New(rand.NewSource(7))
	values := make(map[graph.NodeID]int64)
	var want int64
	for _, id := range net.Tree().Nodes() {
		v := int64(rng.Intn(1000))
		values[id] = v
		want += v
	}
	m, err := Run(net, s, values, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatalf("incomplete: %s", m)
	}
	if m.Sum != want || m.Expected != want {
		t.Fatalf("sum = %d, want %d", m.Sum, want)
	}
	// Collisions may occur between two non-children audible at a parent
	// (harmless: the schedule only protects parent-child receptions), but
	// the sum above proves every child got through.
	// Awake bound: W+1 per node.
	if m.MaxAwake > s.MaxSlot()+1 {
		t.Fatalf("max awake %d exceeds W+1 = %d", m.MaxAwake, s.MaxSlot()+1)
	}
	if m.ScheduleLen != net.Tree().Height()*s.MaxSlot() {
		t.Fatalf("schedule %d != h*W", m.ScheduleLen)
	}
}

func TestGatherCountsNodes(t *testing.T) {
	net := buildNet(t, 3, 60)
	s := NewSchedule(net)
	// All values zero: the count channel still reports every node.
	m, err := Run(net, s, nil, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reporting != 60 || m.Sum != 0 {
		t.Fatalf("metrics = %s", m)
	}
}

func TestGatherSingleNode(t *testing.T) {
	net := cnet.New(0, nil)
	s := NewSchedule(net)
	m, err := Run(net, s, map[graph.NodeID]int64{0: 42}, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sum != 42 || !m.Complete() || m.Rounds != 0 {
		t.Fatalf("singleton gather: %s", m)
	}
}

func TestGatherLosesFailedSubtree(t *testing.T) {
	net := buildNet(t, 9, 80)
	s := NewSchedule(net)
	// Kill a child of the root before it relays: its subtree's values are
	// lost but everything else arrives.
	children := net.Tree().Children(net.Root())
	if len(children) == 0 {
		t.Skip("root has no children")
	}
	victim := children[0]
	lost := len(net.Tree().Subtree(victim))
	values := make(map[graph.NodeID]int64)
	for _, id := range net.Tree().Nodes() {
		values[id] = 1
	}
	m, err := Run(net, s, values, radio.Config{Failures: []radio.NodeFailure{{Node: victim, Round: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Complete() {
		t.Fatal("gather complete despite dead relay")
	}
	if m.Reporting != 80-lost {
		t.Fatalf("reporting %d, want %d (lost subtree of %d)", m.Reporting, 80-lost, lost)
	}
	if m.Sum != int64(80-lost) {
		t.Fatalf("sum %d, want %d", m.Sum, 80-lost)
	}
}

// Property: on random deployments the convergecast is exact and
// collision-free, and the W bound respects the conflict-degree argument
// (W <= max over parents of audible same-depth nodes).
func TestGatherProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%80) + 1
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
		if err != nil {
			return false
		}
		net, _, err := cnet.BuildFromGraph(d.Graph(), 0, nil)
		if err != nil {
			return false
		}
		s := NewSchedule(net)
		if s.Verify() != nil {
			return false
		}
		values := make(map[graph.NodeID]int64)
		var want int64
		for i, id := range net.Tree().Nodes() {
			values[id] = int64(i)
			want += int64(i)
		}
		m, err := Run(net, s, values, radio.Config{})
		if err != nil {
			return false
		}
		return m.Complete() && m.Sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
