package joinproto

import (
	"testing"
	"testing/quick"

	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func buildNetwork(t testing.TB, seed int64, n int) *core.Network {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.Build(d.Graph(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestJoinAgainstHead(t *testing.T) {
	net := buildNetwork(t, 1, 40)
	heads := net.CNet().Heads()
	res, err := Join(net, 9999, []graph.NodeID{heads[0]}, 7, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent != heads[0] {
		t.Fatalf("parent = %d, want head %d", res.Parent, heads[0])
	}
	if st, _ := net.CNet().Status(9999); st != cnet.Member {
		t.Fatalf("joiner status = %v", st)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.TotalRounds() <= 0 || res.DiscoveryRounds <= 0 || res.QueryRounds != 2 {
		t.Fatalf("round accounting: %s", res)
	}
}

func TestJoinPromotesMember(t *testing.T) {
	net := buildNetwork(t, 2, 60)
	members := net.CNet().Members()
	if len(members) == 0 {
		t.Skip("no members")
	}
	// Find a member whose neighborhood we will restrict to just itself.
	m := members[0]
	res, err := Join(net, 8888, []graph.NodeID{m}, 5, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent != m {
		t.Fatalf("parent = %d, want member %d", res.Parent, m)
	}
	if st, _ := net.CNet().Status(m); st != cnet.Gateway {
		t.Fatalf("member not promoted: %v", st)
	}
	if st, _ := net.CNet().Status(8888); st != cnet.Head {
		t.Fatalf("joiner not head: %v", st)
	}
	if res.AttachRounds != 3 {
		t.Fatalf("promotion attach rounds = %d, want 3", res.AttachRounds)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinMultiNeighbor(t *testing.T) {
	net := buildNetwork(t, 3, 80)
	// Join next to a random node and its whole neighborhood.
	anchor := net.CNet().Tree().Nodes()[40]
	nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
	pre := net.Size()
	res, err := Join(net, 7777, nbrs, 11, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if net.Size() != pre+1 {
		t.Fatal("join did not grow the network")
	}
	if !res.DiscoveryComplete {
		t.Skipf("discovery missed a neighbor (Monte Carlo): %s", res)
	}
	if len(res.Discovered) != len(nbrs) {
		t.Fatalf("discovered %d of %d", len(res.Discovered), len(nbrs))
	}
	// Query phase is exactly 2 rounds per neighbor.
	if res.QueryRounds != 2*len(nbrs) {
		t.Fatalf("query rounds = %d, want %d", res.QueryRounds, 2*len(nbrs))
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinErrors(t *testing.T) {
	net := buildNetwork(t, 4, 20)
	if _, err := Join(net, 0, []graph.NodeID{1}, 1, radio.Config{}); err == nil {
		t.Fatal("existing node accepted")
	}
	if _, err := Join(net, 555, nil, 1, radio.Config{}); err == nil {
		t.Fatal("no neighbors accepted")
	}
	if _, err := Join(net, 555, []graph.NodeID{4242}, 1, radio.Config{}); err == nil {
		t.Fatal("unknown neighbor accepted")
	}
}

func TestJoinRoundsScaleWithDegree(t *testing.T) {
	total := func(nNbrs int) int {
		net := buildNetwork(t, 6, 100)
		// Use the root's neighborhood truncated to nNbrs.
		nbrs := append([]graph.NodeID{net.Root()}, net.Graph().Neighbors(net.Root())...)
		if len(nbrs) < nNbrs {
			t.Skipf("root degree too small (%d)", len(nbrs))
		}
		res, err := Join(net, 6666, nbrs[:nNbrs], 3, radio.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.DiscoveryRounds + res.QueryRounds
	}
	small := total(1)
	large := total(6)
	if large <= small {
		t.Fatalf("rounds did not grow with degree: %d vs %d", small, large)
	}
}

// Property: protocol joins on random networks keep every invariant, and
// the protocol's Definition-1 decision matches the structural layer's.
func TestJoinProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, anchorRaw uint8) bool {
		n := int(nRaw%50) + 5
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
		if err != nil {
			return false
		}
		net, err := core.Build(d.Graph(), core.Config{})
		if err != nil {
			return false
		}
		anchor := graph.NodeID(int(anchorRaw) % n)
		nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
		res, err := Join(net, graph.NodeID(n+100), nbrs, seed, radio.Config{})
		if err != nil {
			return false
		}
		if p, ok := net.CNet().Tree().Parent(graph.NodeID(n + 100)); !ok || p != res.Parent {
			return false
		}
		return net.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
