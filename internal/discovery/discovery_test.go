package discovery

import (
	"testing"
	"testing/quick"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func star(n int) *graph.Graph {
	g := graph.New()
	g.AddNode(0)
	for i := 1; i <= n; i++ {
		_ = g.AddEdge(0, graph.NodeID(i))
	}
	return g
}

func TestDiscoverSingleNeighbor(t *testing.T) {
	g := star(1)
	res, err := Run(g, 0, 1, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Discovered) != 1 || res.Discovered[0] != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestDiscoverNoNeighbors(t *testing.T) {
	g := graph.New()
	g.AddNode(0)
	g.AddNode(1) // not adjacent
	res, err := Run(g, 0, 1, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Discovered) != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestDiscoverManyNeighbors(t *testing.T) {
	for _, d := range []int{2, 5, 10, 20} {
		g := star(d)
		res, err := Run(g, 0, int64(d), radio.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("d=%d: discovered only %d (%+v)", d, len(res.Discovered), res)
		}
		if res.Collisions == 0 && d > 3 {
			t.Fatalf("d=%d: no collisions at all is implausible for the decay protocol", d)
		}
	}
}

func TestDiscoveryRoundsGrowWithDegree(t *testing.T) {
	avg := func(d int) float64 {
		total := 0
		const reps = 10
		for s := int64(0); s < reps; s++ {
			res, err := Run(star(d), 0, s, radio.Config{})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Rounds
		}
		return float64(total) / reps
	}
	small, large := avg(2), avg(30)
	if large <= small {
		t.Fatalf("rounds did not grow with degree: d=2 %.1f vs d=30 %.1f", small, large)
	}
}

func TestDiscoveryOnRealDeployment(t *testing.T) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(3, 8, 60))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	// The joiner is an existing node; everyone else responds only if
	// adjacent, and distant nodes must not appear.
	res, err := Run(g, 30, 7, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete on deployment: %+v (truth %v)", res, g.Neighbors(30))
	}
	for _, id := range res.Discovered {
		if !g.HasEdge(id, 30) {
			t.Fatalf("non-neighbor %d discovered", id)
		}
	}
}

func TestRunErrors(t *testing.T) {
	g := graph.New()
	g.AddNode(0)
	if _, err := Run(g, 5, 0, radio.Config{}); err == nil {
		t.Fatal("absent joiner accepted")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := star(8)
	a, err := Run(g, 0, 42, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, 0, 42, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || len(a.Discovered) != len(b.Discovered) {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// Property: across random stars and seeds, discovery completes with high
// probability and never invents neighbors.
func TestDiscoveryProperty(t *testing.T) {
	misses := 0
	runs := 0
	f := func(seed int64, dRaw uint8) bool {
		d := int(dRaw%25) + 1
		g := star(d)
		res, err := Run(g, 0, seed, radio.Config{})
		if err != nil {
			return false
		}
		runs++
		if !res.Complete {
			misses++ // Monte Carlo: rare misses are tolerated below
		}
		for _, id := range res.Discovered {
			if !g.HasEdge(id, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if runs > 0 && misses*10 > runs {
		t.Fatalf("too many incomplete discoveries: %d/%d", misses, runs)
	}
}
