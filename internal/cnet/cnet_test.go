package cnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynsens/internal/graph"
	"dynsens/internal/workload"
)

// buildPaperNet constructs a CNet over a paper-style deployment.
func buildPaperNet(t testing.TB, seed int64, n int) *CNet {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := BuildFromGraph(d.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewSingleNode(t *testing.T) {
	c := New(5, nil)
	if c.Size() != 1 || c.Root() != 5 {
		t.Fatalf("size=%d root=%d", c.Size(), c.Root())
	}
	if s, _ := c.Status(5); s != Head {
		t.Fatalf("root status = %v", s)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveInCaseHead(t *testing.T) {
	// Fig. 2(a): joining next to a head makes you its member.
	c := New(0, nil)
	p, cost, err := c.MoveIn(1, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("parent = %d", p)
	}
	if s, _ := c.Status(1); s != Member {
		t.Fatalf("status = %v", s)
	}
	if cost.Discovery != 1 || cost.Moves != 1 {
		t.Fatalf("cost = %+v", cost)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveInCaseMemberPromotion(t *testing.T) {
	// Fig. 2(c): joining next to only a member promotes it to gateway and
	// the joiner heads a new cluster.
	c := New(0, nil)
	_, _, _ = c.MoveIn(1, []graph.NodeID{0}) // member of 0
	p, _, err := c.MoveIn(2, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("parent = %d", p)
	}
	if s, _ := c.Status(1); s != Gateway {
		t.Fatalf("old member status = %v", s)
	}
	if s, _ := c.Status(2); s != Head {
		t.Fatalf("joiner status = %v", s)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveInCaseGateway(t *testing.T) {
	// Fig. 2(b): joining next to a gateway (and no head) makes you a head.
	c := New(0, nil)
	_, _, _ = c.MoveIn(1, []graph.NodeID{0})
	_, _, _ = c.MoveIn(2, []graph.NodeID{1}) // 1 is now gateway
	p, _, err := c.MoveIn(3, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("parent = %d", p)
	}
	if s, _ := c.Status(3); s != Head {
		t.Fatalf("status = %v", s)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveInPrefersHeadOverGateway(t *testing.T) {
	c := New(0, nil)
	_, _, _ = c.MoveIn(1, []graph.NodeID{0})
	_, _, _ = c.MoveIn(2, []graph.NodeID{1}) // gateway 1, head 2
	// Node 4 hears gateway 1 and head 2: must become member of 2.
	p, _, err := c.MoveIn(4, []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p != 2 {
		t.Fatalf("parent = %d, want head 2", p)
	}
	if s, _ := c.Status(4); s != Member {
		t.Fatalf("status = %v", s)
	}
}

func TestMoveInErrors(t *testing.T) {
	c := New(0, nil)
	if _, _, err := c.MoveIn(0, []graph.NodeID{0}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, _, err := c.MoveIn(1, nil); err == nil {
		t.Fatal("empty neighbor set accepted")
	}
	if _, _, err := c.MoveIn(1, []graph.NodeID{9}); err == nil {
		t.Fatal("unknown neighbor accepted")
	}
	if _, _, err := c.MoveIn(1, []graph.NodeID{1}); err == nil {
		t.Fatal("self neighbor accepted")
	}
	if _, _, err := c.MoveIn(1, []graph.NodeID{0, 0}); err == nil {
		t.Fatal("duplicate neighbor accepted")
	}
}

func TestStatusString(t *testing.T) {
	if Head.String() != "cluster-head" || Gateway.String() != "gateway" || Member.String() != "pure-member" {
		t.Fatal("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Fatal("unknown status should format")
	}
}

func TestBuildFromGraphRequiresConnectivity(t *testing.T) {
	g := graph.New()
	g.AddNode(0)
	g.AddNode(1)
	if _, _, err := BuildFromGraph(g, 0, nil); err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if _, _, err := BuildFromGraph(g, 7, nil); err == nil {
		t.Fatal("absent root accepted")
	}
}

func TestBuildFromGraphVerifies(t *testing.T) {
	c := buildPaperNet(t, 42, 120)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyCliqueBound(); err != nil {
		t.Fatal(err)
	}
	st := c.ComputeStats()
	if st.Nodes != 120 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	if st.Clusters+st.Gateways+st.Members != 120 {
		t.Fatalf("statuses do not partition: %+v", st)
	}
	if st.BackboneSize != st.Clusters+st.Gateways {
		t.Fatalf("backbone size mismatch: %+v", st)
	}
	// Property 1(1): |BT| <= 2*#clusters - 1 after pure construction.
	if st.BackboneSize > 2*st.Clusters-1 {
		t.Fatalf("backbone %d exceeds 2p-1 with p=%d", st.BackboneSize, st.Clusters)
	}
	if st.BackboneHeight > st.Height {
		t.Fatalf("backbone taller than CNet: %+v", st)
	}
	if st.DegreeBT > st.DegreeG {
		t.Fatalf("d > D: %+v", st)
	}
}

func TestBackboneStructure(t *testing.T) {
	c := buildPaperNet(t, 7, 80)
	bt := c.Backbone()
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	if bt.Root() != c.Root() {
		t.Fatal("backbone root differs")
	}
	depth := bt.DepthMap()
	for _, id := range bt.Nodes() {
		s, _ := c.Status(id)
		if s == Member {
			t.Fatalf("member %d in backbone", id)
		}
		// Depth alternation: heads even, gateways odd (Property 1(2)).
		if s == Head && depth[id]%2 != 0 {
			t.Fatalf("head %d at odd backbone depth", id)
		}
		if s == Gateway && depth[id]%2 != 1 {
			t.Fatalf("gateway %d at even backbone depth", id)
		}
	}
	// Backbone depth must agree with CNet depth (it is a prefix-closed
	// subtree).
	for _, id := range bt.Nodes() {
		if depth[id] != c.Tree().Depth(id) {
			t.Fatalf("depth mismatch for %d", id)
		}
	}
}

func TestMoveOutLeaf(t *testing.T) {
	c := New(0, nil)
	_, _, _ = c.MoveIn(1, []graph.NodeID{0})
	_, _, _ = c.MoveIn(2, []graph.NodeID{0, 1})
	rec, _, err := c.MoveOut(2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Removed != 2 || len(rec.Reinserted) != 0 {
		t.Fatalf("rec = %+v", rec)
	}
	if c.Contains(2) || c.Size() != 2 {
		t.Fatal("node not removed")
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveOutInternalReinserts(t *testing.T) {
	// G: 0-1, 0-2, 1-2, 1-3, 2-3. A policy favoring node 2 makes 2 the
	// parent of 3, so 3 sits in the subtree detached when 2 leaves, yet
	// stays connected via 1 afterwards.
	c := New(0, MaxValue(map[graph.NodeID]float64{2: 1}))
	_, _, _ = c.MoveIn(1, []graph.NodeID{0})
	_, _, _ = c.MoveIn(2, []graph.NodeID{0, 1})
	_, _, _ = c.MoveIn(3, []graph.NodeID{1, 2})
	if p, _ := c.Tree().Parent(3); p != 2 {
		t.Fatalf("setup: parent of 3 = %d, want 2", p)
	}
	rec, cost, err := c.MoveOut(2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Removed != 2 {
		t.Fatalf("rec = %+v", rec)
	}
	// 3 was in the detached subtree and must be re-inserted.
	found := false
	for _, x := range rec.Reinserted {
		if x == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("3 not reinserted: %+v", rec)
	}
	if !c.Contains(3) || c.Contains(2) {
		t.Fatal("membership wrong after move-out")
	}
	if cost.Total() <= 0 {
		t.Fatalf("cost = %+v", cost)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveOutErrors(t *testing.T) {
	c := New(0, nil)
	if _, _, err := c.MoveOut(0); err == nil {
		t.Fatal("removed last node")
	}
	_, _, _ = c.MoveIn(1, []graph.NodeID{0})
	_, _, _ = c.MoveIn(2, []graph.NodeID{1})
	// Removing 1 disconnects 0 from 2.
	if _, _, err := c.MoveOut(1); err == nil {
		t.Fatal("disconnecting removal accepted")
	}
	if _, _, err := c.MoveOut(77); err == nil {
		t.Fatal("absent node accepted")
	}
}

func TestMoveOutRoot(t *testing.T) {
	c := buildPaperNet(t, 3, 40)
	// Ensure root removal keeps connectivity; if not, pick another seed.
	res := c.Graph().Clone()
	res.RemoveNode(c.Root())
	if !res.Connected() {
		t.Skip("seed yields cut-vertex root")
	}
	oldRoot := c.Root()
	rec, _, err := c.MoveOut(oldRoot)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.RootChanged {
		t.Fatal("RootChanged not set")
	}
	if c.Root() == oldRoot || c.Contains(oldRoot) {
		t.Fatal("old root still present")
	}
	if c.Size() != 39 {
		t.Fatalf("size = %d", c.Size())
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxValuePolicy(t *testing.T) {
	energy := map[graph.NodeID]float64{1: 0.5, 2: 0.9}
	pol := MaxValue(energy)
	if got := pol([]graph.NodeID{1, 2}); got != 2 {
		t.Fatalf("policy chose %d", got)
	}
	if got := pol([]graph.NodeID{3, 4}); got != 3 {
		t.Fatalf("missing-entry tie-break chose %d", got)
	}
	// Policy actually steers parent choice.
	c := New(0, MaxValue(map[graph.NodeID]float64{0: 1}))
	if p, _, err := c.MoveIn(1, []graph.NodeID{0}); err != nil || p != 0 {
		t.Fatalf("p=%d err=%v", p, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := buildPaperNet(t, 5, 30)
	cl := c.Clone()
	if cl.Size() != c.Size() {
		t.Fatal("clone size differs")
	}
	if _, _, err := cl.MoveIn(1000, []graph.NodeID{cl.Root()}); err != nil {
		t.Fatal(err)
	}
	if c.Contains(1000) {
		t.Fatal("clone aliased original")
	}
	if err := cl.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildByGossipMatchesIncremental(t *testing.T) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(17, 8, 70))
	if err != nil {
		t.Fatal(err)
	}
	inc, _, err := BuildFromGraph(d.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gos, cost, err := BuildByGossip(d.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Discovery != 2*70 {
		t.Fatalf("gossip cost = %+v", cost)
	}
	// Identical structure: same statuses and same tree edges.
	for _, id := range inc.Tree().Nodes() {
		si, _ := inc.Status(id)
		sg, ok := gos.Status(id)
		if !ok || si != sg {
			t.Fatalf("status of %d differs: %v vs %v", id, si, sg)
		}
		pi, oki := inc.Tree().Parent(id)
		pg, okg := gos.Tree().Parent(id)
		if oki != okg || pi != pg {
			t.Fatalf("parent of %d differs", id)
		}
	}
	if err := gos.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildByGossipErrors(t *testing.T) {
	g := graph.New()
	g.AddNode(0)
	g.AddNode(1)
	if _, _, err := BuildByGossip(g, 0, nil); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestOpCostTotalAndAdd(t *testing.T) {
	a := OpCost{Discovery: 1, HeightUpdate: 2, SlotUpdate: 3, Moves: 4}
	if a.Total() != 10 {
		t.Fatalf("Total = %d", a.Total())
	}
	var b OpCost
	b.Add(a)
	b.Add(a)
	if b.Total() != 20 {
		t.Fatalf("accumulated = %+v", b)
	}
}

// Property: construction over random connected deployments always verifies,
// and the key Property-1 facts hold.
func TestConstructionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%80) + 2
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
		if err != nil {
			return false
		}
		c, _, err := BuildFromGraph(d.Graph(), 0, nil)
		if err != nil {
			return false
		}
		if c.Verify() != nil || c.VerifyCliqueBound() != nil {
			return false
		}
		st := c.ComputeStats()
		return st.BackboneSize <= 2*st.Clusters-1 && st.DegreeBT <= st.DegreeG
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random sequence of safe move-outs keeps the structure valid.
func TestMoveOutProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := buildPaperNet(t, seed, 40)
		for k := 0; k < 8 && c.Size() > 3; k++ {
			nodes := c.Tree().Nodes()
			victim := nodes[rng.Intn(len(nodes))]
			res := c.Graph().Clone()
			res.RemoveNode(victim)
			if !res.Connected() {
				continue
			}
			if _, _, err := c.MoveOut(victim); err != nil {
				return false
			}
			if c.Verify() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestMoveOutRejectsExactlyCutVertices checks MoveOut's local connectivity
// search against the graph's articulation points: on seeded connected
// unit-disk networks, sparse and dense, MoveOut(v) on a clone fails
// exactly when v is a cut vertex of G, and a refused call leaves the
// clone's size, structure and edge count as they were.
func TestMoveOutRejectsExactlyCutVertices(t *testing.T) {
	refused, done := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		side := 4 + 4*int(seed%2)
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, side, 60))
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := BuildFromGraph(d.Graph(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cut := c.Graph().ArticulationPoints()
		for _, v := range c.Graph().Nodes() {
			cl := c.Clone()
			size, edges := cl.Size(), cl.Graph().NumEdges()
			_, _, err := cl.MoveOut(v)
			if (err != nil) != cut[v] {
				t.Fatalf("seed %d: MoveOut(%d) error %v, cut vertex %v", seed, v, err, cut[v])
			}
			if err == nil {
				done++
				continue
			}
			refused++
			if cl.Size() != size || cl.Graph().NumEdges() != edges {
				t.Fatalf("seed %d: refused MoveOut(%d) changed size %d->%d, edges %d->%d",
					seed, v, size, cl.Size(), edges, cl.Graph().NumEdges())
			}
			if err := cl.Verify(); err != nil {
				t.Fatalf("seed %d: refused MoveOut(%d): %v", seed, v, err)
			}
		}
	}
	if refused == 0 || done == 0 {
		t.Fatalf("refused %d and completed %d move-outs: both outcomes must occur", refused, done)
	}
}
