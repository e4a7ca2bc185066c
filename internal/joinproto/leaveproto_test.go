package joinproto

import (
	"testing"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

func safeVictim(t *testing.T, net interface {
	Root() graph.NodeID
	Graph() *graph.Graph
}, nodes []graph.NodeID, wantSubtree bool, tree interface {
	Subtree(graph.NodeID) []graph.NodeID
}) (graph.NodeID, bool) {
	t.Helper()
	for i := len(nodes) - 1; i >= 0; i-- {
		id := nodes[i]
		if id == net.Root() {
			continue
		}
		if wantSubtree && len(tree.Subtree(id)) < 2 {
			continue
		}
		g := net.Graph().Clone()
		g.RemoveNode(id)
		if g.Connected() {
			return id, true
		}
	}
	return 0, false
}

func TestLeaveLeaf(t *testing.T) {
	net := buildNetwork(t, 31, 60)
	victim, ok := safeVictim(t, net, net.CNet().Tree().Nodes(), false, net.CNet().Tree())
	if !ok {
		t.Skip("no safe victim")
	}
	isLeaf := net.CNet().Tree().IsLeaf(victim)
	res, err := Leave(net, victim, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if net.Contains(victim) {
		t.Fatal("node still present")
	}
	if isLeaf && res.Subtree != 1 {
		t.Fatalf("leaf subtree = %d", res.Subtree)
	}
	if res.TourRounds != 2*(res.Subtree-1)+1 {
		t.Fatalf("tour rounds %d for |T|=%d", res.TourRounds, res.Subtree)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveInternalSubtree(t *testing.T) {
	// Find a seed/victim with a real subtree.
	for seed := int64(1); seed < 12; seed++ {
		net := buildNetwork(t, seed, 70)
		victim, ok := safeVictim(t, net, net.CNet().Tree().Nodes(), true, net.CNet().Tree())
		if !ok {
			continue
		}
		size := net.Size()
		sub := len(net.CNet().Tree().Subtree(victim))
		res, err := Leave(net, victim, radio.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Subtree != sub {
			t.Fatalf("subtree = %d, want %d", res.Subtree, sub)
		}
		if net.Size() != size-1 {
			t.Fatalf("size = %d, want %d", net.Size(), size-1)
		}
		if res.StructuralRounds <= 0 {
			t.Fatalf("no structural cost: %s", res)
		}
		if err := net.Verify(); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Skip("no seed with a removable internal subtree")
}

func TestLeaveAnnounceDepth(t *testing.T) {
	net := buildNetwork(t, 33, 60)
	tr := net.CNet().Tree()
	victim, ok := safeVictim(t, net, tr.Nodes(), false, tr)
	if !ok {
		t.Skip("no safe victim")
	}
	depth := tr.Depth(victim)
	res, err := Leave(net, victim, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AnnounceRounds != depth {
		t.Fatalf("announce rounds %d, want depth %d", res.AnnounceRounds, depth)
	}
}

func TestLeaveErrors(t *testing.T) {
	net := buildNetwork(t, 34, 20)
	if _, err := Leave(net, 4242, radio.Config{}); err == nil {
		t.Fatal("absent node accepted")
	}
}

func TestJoinThenLeaveRoundTrip(t *testing.T) {
	net := buildNetwork(t, 35, 50)
	anchor := net.Root()
	nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
	if _, err := Join(net, 5050, nbrs, 9, radio.Config{}); err != nil {
		t.Fatal(err)
	}
	res, err := Leave(net, 5050, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if net.Contains(5050) || res.Removed != 5050 {
		t.Fatalf("round trip failed: %s", res)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
}
