// Package dynsens_test holds the benchmark harness: one benchmark per
// table/figure of the paper's evaluation (and per extension experiment).
// Each benchmark rebuilds the corresponding measurement and surfaces the
// figure's series through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every number. The experiment tables themselves are produced
// by cmd/experiments; these benchmarks additionally time the implementation
// (construction cost, protocol execution cost) at paper scale.
package dynsens_test

import (
	"fmt"
	"math"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/discovery"
	"dynsens/internal/energy"
	"dynsens/internal/expt"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

// paperSizes are the x axis of Figures 8-11.
var paperSizes = []int{100, 200, 300, 400, 500}

func mustNetwork(b *testing.B, seed int64, side, n int) *core.Network {
	b.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, side, n))
	if err != nil {
		b.Fatal(err)
	}
	net, err := core.Build(d.Graph(), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkFig08Broadcast measures Figure 8: completion rounds of the CFF
// broadcast (Algorithm 2) vs the DFO baseline at each network size.
func BenchmarkFig08Broadcast(b *testing.B) {
	for _, n := range paperSizes {
		b.Run(fmt.Sprintf("n=%d/cff", n), func(b *testing.B) {
			net := mustNetwork(b, 1, 10, n)
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := net.Broadcast(net.Root(), broadcast.Options{})
				if err != nil || !m.Completed {
					b.Fatalf("broadcast failed: %v %s", err, m)
				}
				rounds = m.CompletionRound
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("n=%d/dfo", n), func(b *testing.B) {
			net := mustNetwork(b, 1, 10, n)
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := net.BroadcastDFO(net.Root(), broadcast.Options{})
				if err != nil || !m.Completed {
					b.Fatalf("broadcast failed: %v %s", err, m)
				}
				rounds = m.CompletionRound
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkFig09Awake measures Figure 9: the maximum rounds any node must
// stay awake during a broadcast, per protocol and size.
func BenchmarkFig09Awake(b *testing.B) {
	for _, n := range paperSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := mustNetwork(b, 1, 10, n)
			var cff, dfo int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mc, err := net.Broadcast(net.Root(), broadcast.Options{})
				if err != nil {
					b.Fatal(err)
				}
				md, err := net.BroadcastDFO(net.Root(), broadcast.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cff, dfo = mc.MaxAwake, md.MaxAwake
			}
			b.ReportMetric(float64(cff), "cff-awake")
			b.ReportMetric(float64(dfo), "dfo-awake")
		})
	}
}

// BenchmarkFig10Backbone measures Figure 10: backbone size and height per
// network size (and times full self-construction).
func BenchmarkFig10Backbone(b *testing.B) {
	for _, n := range paperSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := workload.IncrementalConnected(workload.PaperConfig(1, 10, n))
			if err != nil {
				b.Fatal(err)
			}
			var st core.Snapshot
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := core.Build(d.Graph(), core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				st = net.Stats()
			}
			b.ReportMetric(float64(st.BackboneSize), "bt-size")
			b.ReportMetric(float64(st.BackboneHeight), "bt-height")
		})
	}
}

// BenchmarkFig11DegreesSlots measures Figure 11: D, d, Delta, delta per
// network size.
func BenchmarkFig11DegreesSlots(b *testing.B) {
	for _, n := range paperSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := mustNetwork(b, 1, 10, n)
			var st core.Snapshot
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st = net.Stats()
			}
			b.ReportMetric(float64(st.DegreeG), "D")
			b.ReportMetric(float64(st.DegreeBT), "d")
			b.ReportMetric(float64(st.Delta), "Delta")
			b.ReportMetric(float64(st.SmallDelta), "delta")
		})
	}
}

// BenchmarkBoundsCheck validates Lemma 3 at scale: measured slots against
// the quadratic bounds.
func BenchmarkBoundsCheck(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	var st core.Snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = net.Stats()
		if st.Delta > st.BoundL || st.SmallDelta > st.BoundB {
			b.Fatalf("Lemma 3 violated: %+v", st)
		}
	}
	b.ReportMetric(float64(st.Delta)/float64(st.BoundL), "Delta/bound")
	b.ReportMetric(float64(st.SmallDelta)/float64(st.BoundB), "delta/bound")
}

// BenchmarkMultiChannel measures the Section 3.3 k-channel speedup at
// n=500.
func BenchmarkMultiChannel(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			net := mustNetwork(b, 1, 10, 500)
			var rounds, awake int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := net.Broadcast(net.Root(), broadcast.Options{Channels: k})
				if err != nil || !m.Completed {
					b.Fatalf("broadcast failed: %v %s", err, m)
				}
				rounds, awake = m.CompletionRound, m.MaxAwake
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(awake), "max-awake")
		})
	}
}

// BenchmarkMulticast measures Section 3.4: transmissions of a multicast to
// a 10% group vs a full broadcast at n=500.
func BenchmarkMulticast(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	i := 0
	for _, id := range net.CNet().Tree().Nodes() {
		if i%10 == 0 {
			if err := net.JoinGroup(id, 1); err != nil {
				b.Fatal(err)
			}
		}
		i++
	}
	var mcTx, bcTx int
	b.ResetTimer()
	for j := 0; j < b.N; j++ {
		mc, err := net.Multicast(1, net.Root(), broadcast.Options{})
		if err != nil || !mc.Completed {
			b.Fatalf("multicast failed: %v %s", err, mc)
		}
		bc, err := net.Broadcast(net.Root(), broadcast.Options{})
		if err != nil || !bc.Completed {
			b.Fatalf("broadcast failed: %v %s", err, bc)
		}
		mcTx, bcTx = mc.Transmissions, bc.Transmissions
	}
	b.ReportMetric(float64(mcTx), "mc-tx")
	b.ReportMetric(float64(bcTx), "bc-tx")
}

// BenchmarkRobustness measures delivery ratios under a 10% failure trace
// at n=500 for both protocols.
func BenchmarkRobustness(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	horizon := 2 * (net.Stats().BackboneSize - 1)
	var fails []broadcast.NodeFailure
	for _, f := range workload.FailureTrace(net.Graph(), net.Root(), 0.1, horizon, 99) {
		fails = append(fails, broadcast.NodeFailure{Node: f.Node, Round: f.Round})
	}
	var cff, dfo float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc, err := net.Broadcast(net.Root(), broadcast.Options{Config: radio.Config{Failures: fails}})
		if err != nil {
			b.Fatal(err)
		}
		md, err := net.BroadcastDFO(net.Root(), broadcast.Options{Config: radio.Config{Failures: fails}})
		if err != nil {
			b.Fatal(err)
		}
		cff, dfo = mc.DeliveryRatio(), md.DeliveryRatio()
	}
	b.ReportMetric(cff, "cff-delivery")
	b.ReportMetric(dfo, "dfo-delivery")
}

// BenchmarkReconfig measures Theorems 2/3: the cost of one node-move-in
// and one node-move-out on a 500-node network (structure + slot repair).
func BenchmarkReconfig(b *testing.B) {
	// One shared network; every iteration joins a fresh node next to the
	// root and (for move-out) removes it again, so the structure stays at
	// its paper-scale size without rebuilding per iteration.
	b.Run("move-in", func(b *testing.B) {
		net := mustNetwork(b, 1, 10, 500)
		anchor := net.Root()
		nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
		var rounds int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := graph.NodeID(100000 + i)
			pre := net.Stats()
			if err := net.Join(id, nbrs); err != nil {
				b.Fatal(err)
			}
			post := net.Stats()
			rounds = post.StructuralRounds - pre.StructuralRounds + post.SlotRounds - pre.SlotRounds
			b.StopTimer()
			if err := net.Leave(id); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(rounds), "maint-rounds")
	})
	b.Run("move-out", func(b *testing.B) {
		net := mustNetwork(b, 1, 10, 500)
		anchor := net.Root()
		nbrs := append([]graph.NodeID{anchor}, net.Graph().Neighbors(anchor)...)
		var rounds int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			id := graph.NodeID(200000 + i)
			if err := net.Join(id, nbrs); err != nil {
				b.Fatal(err)
			}
			pre := net.Stats()
			b.StartTimer()
			if err := net.Leave(id); err != nil {
				b.Fatal(err)
			}
			post := net.Stats()
			rounds = post.StructuralRounds - pre.StructuralRounds + post.SlotRounds - pre.SlotRounds
		}
		b.ReportMetric(float64(rounds), "maint-rounds")
	})
}

// BenchmarkAreas repeats the Figure 8 measurement on the paper's three
// region scales at n=500.
func BenchmarkAreas(b *testing.B) {
	for _, side := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
			net := mustNetwork(b, 1, side, 500)
			var cff, dfo int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mc, err := net.Broadcast(net.Root(), broadcast.Options{})
				if err != nil || !mc.Completed {
					b.Fatalf("broadcast failed: %v %s", err, mc)
				}
				md, err := net.BroadcastDFO(net.Root(), broadcast.Options{})
				if err != nil || !md.Completed {
					b.Fatalf("broadcast failed: %v %s", err, md)
				}
				cff, dfo = mc.CompletionRound, md.CompletionRound
			}
			b.ReportMetric(float64(cff), "cff-rounds")
			b.ReportMetric(float64(dfo), "dfo-rounds")
		})
	}
}

// BenchmarkAblationAlg1VsAlg2 compares the two flooding algorithms at
// n=500.
func BenchmarkAblationAlg1VsAlg2(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	var a1, a2 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m1, err := net.BroadcastCFF(net.Root(), broadcast.Options{})
		if err != nil || !m1.Completed {
			b.Fatalf("alg1 failed: %v %s", err, m1)
		}
		m2, err := net.Broadcast(net.Root(), broadcast.Options{})
		if err != nil || !m2.Completed {
			b.Fatalf("alg2 failed: %v %s", err, m2)
		}
		a1, a2 = m1.CompletionRound, m2.CompletionRound
	}
	b.ReportMetric(float64(a1), "alg1-rounds")
	b.ReportMetric(float64(a2), "alg2-rounds")
}

// BenchmarkAblationSlotCondition compares the paper's literal l-slot
// condition with the strict one: resulting Delta and delivery ratio.
func BenchmarkAblationSlotCondition(b *testing.B) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(1, 10, 500))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cond timeslot.Condition
	}{
		{"paper", timeslot.ConditionPaper},
		{"strict", timeslot.ConditionStrict},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net, err := core.Build(d.Graph(), core.Config{SlotCondition: tc.cond})
			if err != nil {
				b.Fatal(err)
			}
			var delta int
			var delivery float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := net.Broadcast(net.Root(), broadcast.Options{})
				if err != nil {
					b.Fatal(err)
				}
				delta = net.Stats().Delta
				delivery = m.DeliveryRatio()
			}
			b.ReportMetric(float64(delta), "Delta")
			b.ReportMetric(delivery, "delivery")
		})
	}
}

// BenchmarkConstruction times pure self-construction (node-move-in for all
// nodes plus slot assignment) at each size — the substrate cost behind
// every figure.
func BenchmarkConstruction(b *testing.B) {
	for _, n := range paperSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := workload.IncrementalConnected(workload.PaperConfig(1, 10, n))
			if err != nil {
				b.Fatal(err)
			}
			g := d.Graph()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(g, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGather measures the convergecast extension at n=500: exact
// aggregation rounds and awake cost.
func BenchmarkGather(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	values := make(map[graph.NodeID]int64, 500)
	var want int64
	for _, id := range net.CNet().Tree().Nodes() {
		values[id] = int64(id)
		want += int64(id)
	}
	var rounds, awake int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := net.Gather(values, radio.Config{})
		if err != nil || m.Sum != want {
			b.Fatalf("gather failed: %v %s", err, m)
		}
		rounds, awake = m.Rounds, m.MaxAwake
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(awake), "max-awake")
}

// BenchmarkSkewGuard measures delivery under clock skew 1 with and
// without guard slots at n=500.
func BenchmarkSkewGuard(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	skew := make(map[graph.NodeID]int)
	for i, id := range net.CNet().Tree().Nodes() {
		skew[id] = i%3 - 1
	}
	for _, guard := range []int{1, 3} {
		b.Run(fmt.Sprintf("guard=%d", guard), func(b *testing.B) {
			plan, err := broadcast.ICFFPlanGuarded(net.Slots(), net.Root(), 1, guard)
			if err != nil {
				b.Fatal(err)
			}
			var delivery float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := plan.Run(net.Graph(), broadcast.Options{Config: radio.Config{Skew: skew}})
				if err != nil {
					b.Fatal(err)
				}
				delivery = m.DeliveryRatio()
			}
			b.ReportMetric(delivery, "delivery")
		})
	}
}

// BenchmarkFlooding measures the unstructured blind-flooding baseline at
// n=500 against CFF.
func BenchmarkFlooding(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	var del float64
	var coll int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := broadcast.RunPFlood(net.Graph(), net.Root(), broadcast.PFloodOptions{Seed: 1, Forward: 1})
		if err != nil {
			b.Fatal(err)
		}
		del, coll = m.DeliveryRatio(), m.Collisions
	}
	b.ReportMetric(del, "delivery")
	b.ReportMetric(float64(coll), "collisions")
}

// BenchmarkDiscovery measures the randomized neighbor-discovery handshake
// for a mid-network joiner at n=500.
func BenchmarkDiscovery(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	g := net.Graph()
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := discovery.Run(g, 250, int64(i+1), radio.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkLifetime measures the energy extension: epochs to first node
// death for both protocols at n=500.
func BenchmarkLifetime(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	model := energy.DefaultModel()
	var cffLife, dfoLife int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cff, err := net.Broadcast(net.Root(), broadcast.Options{})
		if err != nil {
			b.Fatal(err)
		}
		dfo, err := net.BroadcastDFO(net.Root(), broadcast.Options{})
		if err != nil {
			b.Fatal(err)
		}
		epoch := dfo.ScheduleLen
		cffLife, _ = energy.Lifetime(model, 1e5, cff.Listens, cff.Transmits, epoch, 1<<30)
		dfoLife, _ = energy.Lifetime(model, 1e5, dfo.Listens, dfo.Transmits, epoch, 1<<30)
	}
	b.ReportMetric(float64(cffLife), "cff-epochs")
	b.ReportMetric(float64(dfoLife), "dfo-epochs")
}

// BenchmarkHarnessQuick runs the whole experiment catalog at quick scale,
// guarding against regressions in any experiment path.
func BenchmarkHarnessQuick(b *testing.B) {
	p := expt.Quick()
	for i := 0; i < b.N; i++ {
		for _, e := range expt.Catalog() {
			if _, err := e.Run(p); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

// --- PR2 scaling benchmarks: grid index vs all-pairs baselines --------------

// scaledConfig grows the region with n so the paper's density (500 nodes on
// a 10x10-unit square) is held constant past paper sizes.
func scaledConfig(seed int64, n int) workload.Config {
	side := int(math.Sqrt(float64(n)/5) + 0.5)
	if side < 4 {
		side = 4
	}
	return workload.PaperConfig(seed, side, n)
}

// scaleSizes are the node counts for the construction and churn scaling
// benchmarks: paper scale, 4x, and 20x.
var scaleSizes = []int{500, 2000, 10000}

// BenchmarkUDGBuild times unit-disk-graph construction from a fixed point
// set: the spatial-grid path (including building the grid itself each
// iteration) against the all-pairs baseline.
func BenchmarkUDGBuild(b *testing.B) {
	for _, n := range scaleSizes {
		cfg := scaledConfig(1, n)
		d, err := workload.IncrementalConnected(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/grid", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Fresh Deployment per iteration so the timing includes
				// building the grid index, not just querying a warm one.
				dd := &geom.Deployment{Region: d.Region, Range: d.Range, Pos: d.Pos}
				if g := dd.Graph(); g.NumNodes() != n {
					b.Fatal("bad graph")
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/allpairs", n), func(b *testing.B) {
			if testing.Short() && n > 500 {
				b.Skip("all-pairs baseline at scale: skipped in -short mode")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := d.GraphAllPairs(); g.NumNodes() != n {
					b.Fatal("bad graph")
				}
			}
		})
	}
}

// BenchmarkChurnReplay times generating a 200-event churn trace: the
// incremental UDGState path against the from-scratch all-pairs baseline.
// Both include the initial placement, which the grid also accelerates.
func BenchmarkChurnReplay(b *testing.B) {
	const steps = 200
	for _, n := range scaleSizes[:2] {
		cfg := scaledConfig(1, n)
		b.Run(fmt.Sprintf("n=%d/grid", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ev, err := workload.ChurnTrace(cfg, steps, 0.4); err != nil || len(ev) != steps {
					b.Fatalf("churn trace: %v", err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/allpairs", n), func(b *testing.B) {
			if testing.Short() && n > 500 {
				b.Skip("all-pairs baseline at scale: skipped in -short mode")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ev, err := workload.ChurnTraceAllPairs(cfg, steps, 0.4); err != nil || len(ev) != steps {
					b.Fatalf("churn trace: %v", err)
				}
			}
		})
	}
}

// BenchmarkMobilityReplay times generating a 100-move mobility trace,
// incremental vs all-pairs.
func BenchmarkMobilityReplay(b *testing.B) {
	const moves = 100
	for _, n := range scaleSizes[:2] {
		cfg := scaledConfig(1, n)
		b.Run(fmt.Sprintf("n=%d/grid", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ev, err := workload.MobilityTrace(cfg, moves, 2); err != nil || len(ev) != 2*moves {
					b.Fatalf("mobility trace: %v", err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/allpairs", n), func(b *testing.B) {
			if testing.Short() && n > 500 {
				b.Skip("all-pairs baseline at scale: skipped in -short mode")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ev, err := workload.MobilityTraceAllPairs(cfg, moves, 2); err != nil || len(ev) != 2*moves {
					b.Fatalf("mobility trace: %v", err)
				}
			}
		})
	}
}

// BenchmarkNeighborsCached measures adjacency reads on an unmutated graph —
// the traversal hot path. With the sorted-adjacency cache this must be
// allocation-free (asserted by TestNeighborsAndNodesAllocationFree; the
// -benchmem column here shows the same at paper scale).
func BenchmarkNeighborsCached(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	g := net.Graph()
	nodes := g.Nodes()
	for _, id := range nodes {
		_ = g.Neighbors(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for _, id := range nodes {
			total += len(g.Neighbors(id))
		}
	}
	if total == 0 {
		b.Fatal("no adjacency read")
	}
}

// BenchmarkSteadyStateBroadcast measures repeated CFF broadcasts on a fixed
// 500-node network — the steady-state hot path whose per-receiver
// interference-set and slot-uniqueness work now runs on reused buffers
// (track the -benchmem column).
func BenchmarkSteadyStateBroadcast(b *testing.B) {
	net := mustNetwork(b, 1, 10, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := net.Broadcast(net.Root(), broadcast.Options{})
		if err != nil || !m.Completed {
			b.Fatalf("broadcast failed: %v %s", err, m)
		}
	}
}
