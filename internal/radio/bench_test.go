package radio

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dynsens/internal/graph"
)

// benchGraph builds a connected graph of n nodes: a random tree plus
// chordsPerNode*n random chords (sparse ≈ degree 4, dense ≈ degree 30).
func benchGraph(n, chordsPerNode int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	g.AddNode(0)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
	}
	for i := 0; i < chordsPerNode*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return g
}

// benchEngine builds a fresh engine over g, running under cfg, whose chaos
// programs stay busy for horizon rounds. Fresh programs per call keep
// iterations independent.
func benchEngine(b *testing.B, g *graph.Graph, horizon int, seed int64, cfg Config) *Engine {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	progs := make(map[graph.NodeID]Program, g.NumNodes())
	for _, id := range g.Nodes() {
		progs[id] = &chaosProg{rng: rand.New(rand.NewSource(rng.Int63())), horizon: horizon}
	}
	eng, err := NewEngine(g, progs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// engineModes is the worker sweep both engine benchmarks share: the
// reference loop (workers=0) against the kernel at 1, 2 and 4 workers.
// The sweep is fixed rather than GOMAXPROCS-derived so BENCH json keys are
// stable across hosts; on a single-CPU box the w2/w4 legs measure pure
// coordination overhead, which scripts/bench.sh reports as-is.
type engineMode struct {
	name    string
	workers int // 0 = reference loop
}

func engineModes(includeReference bool) []engineMode {
	modes := []engineMode{}
	if includeReference {
		modes = append(modes, engineMode{"reference", 0})
	}
	for _, w := range []int{1, 2, 4} {
		modes = append(modes, engineMode{fmt.Sprintf("workers=%d", w), w})
	}
	return modes
}

func runEngineMode(b *testing.B, g *graph.Graph, mode engineMode, horizon int, seed int64) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchEngine(b, g, horizon, seed+int64(i), Config{Workers: mode.workers})
		b.StartTimer()
		var res Result
		if mode.workers == 0 {
			res = eng.RunReference(horizon)
		} else {
			res = eng.Run(horizon)
		}
		if res.Rounds != horizon {
			b.Fatalf("run stopped at round %d of %d", res.Rounds, horizon)
		}
	}
}

// BenchmarkEngineRun measures a full engine run (20 rounds of mixed
// listen/transmit load over 2 channels) across graph sizes and densities,
// comparing the reference loop against the kernel worker sweep.
// scripts/bench.sh runs this with GOMAXPROCS=4 and turns the ratios into
// BENCH_PR5.json (kernel vs reference) and BENCH_PR7.json (wN vs w1).
func BenchmarkEngineRun(b *testing.B) {
	const horizon = 20
	for _, n := range []int{2000, 10000, 50000} {
		for _, topo := range []struct {
			name   string
			chords int
		}{{"sparse", 1}, {"dense", 15}} {
			if testing.Short() && (n > 2000 || topo.name == "dense") {
				continue // CI bench smoke: one small leg keeps it compiling
			}
			g := benchGraph(n, topo.chords, int64(n))
			for _, mode := range engineModes(true) {
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, topo.name, mode.name), func(b *testing.B) {
					runEngineMode(b, g, mode, horizon, int64(n)*31)
				})
			}
		}
	}
}

// BenchmarkEngineScale pushes the kernel worker sweep to n ∈ {200k, 1M}
// sparse — the sizes the parallel-deliver kernel targets. The reference
// loop is excluded (its O(listeners × transmitters) resolve would take
// hours at 10⁶), and -short skips the whole benchmark so the CI bench
// smoke stays fast. GOMAXPROCS is left to the harness; scripts/bench.sh
// pins it to 4 for the recorded BENCH_PR7.json legs.
func BenchmarkEngineScale(b *testing.B) {
	if testing.Short() {
		b.Skip("large-n scale benchmark skipped in -short")
	}
	const horizon = 10
	for _, n := range []int{200_000, 1_000_000} {
		g := benchGraph(n, 1, int64(n))
		for _, mode := range engineModes(false) {
			b.Run(fmt.Sprintf("n=%d/sparse/%s", n, mode.name), func(b *testing.B) {
				runEngineMode(b, g, mode, horizon, int64(n)*31)
			})
		}
		// Drop the graph (and its adjacency caches) before building the
		// next size; at n=10⁶ the two together are worth reclaiming.
		g = nil
		runtime.GC()
	}
}
