// Package expt defines one reproducible experiment per figure of the
// paper's evaluation (Section 6) plus the claims made in the text
// (multi-channel speedup, multicast pruning, robustness, reconfiguration
// cost, Lemma 3 bounds) and two ablations. Each experiment sweeps network
// sizes over several seeds, runs the protocols on the radio engine, and
// returns a text table whose rows are the series the paper plots.
//
// The paper's setup: square regions of 8x8, 10x10 and 12x12 units (1 unit
// = 100 m), communication range 50 m, node counts from 64 to 720; the
// published curves use the 10x10 region. Absolute values depend on the
// authors' unavailable simulator; the reproduction target is the shape of
// each curve (see EXPERIMENTS.md).
package expt

import (
	"math/rand"
	"runtime"
	"sync"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/flight"
	"dynsens/internal/graph"
	"dynsens/internal/netio"
	"dynsens/internal/obs"
	"dynsens/internal/radio"
	"dynsens/internal/stats"
)

// Metric names recorded by sweeps given Params.Obs.
const (
	// MetricExptPoints counts completed (size, seed) simulation points.
	MetricExptPoints = "dynsens_expt_points_total"
	// MetricExptErrors counts points that failed.
	MetricExptErrors = "dynsens_expt_point_errors_total"
	// MetricExptPointSeconds is the per-point wall-time histogram
	// (requires Params.Now).
	MetricExptPointSeconds = "dynsens_expt_point_seconds"
)

// Params control a sweep.
type Params struct {
	// Side is the region side in 100 m units (paper: 8, 10 or 12).
	Side int
	// Sizes are the node counts on the x axis.
	Sizes []int
	// Seeds is the number of deployments averaged per point.
	Seeds int
	// BaseSeed offsets the deployment seeds.
	BaseSeed int64
	// Workers bounds the number of (size, seed) points simulated
	// concurrently; 0 means GOMAXPROCS. Every point is an independent
	// seeded simulation, so parallel execution is deterministic: results
	// are aggregated by point, not by arrival order.
	Workers int
	// EngineWorkers sets the radio engine's shard-worker count *inside*
	// each point (radio.Engine.SetWorkers). The default 0 pins point
	// engines to a single shard: the sweep already saturates cores across
	// points, and the paper's point sizes sit below the engine's parallel
	// threshold anyway. Set it for large-n sweeps where a single point
	// dominates wall-clock time. Any value yields identical results.
	EngineWorkers int
	// NewRand, when non-nil, replaces the default rand construction for
	// every auxiliary random stream (clock skew, crash sets, loss coins).
	// It is called with a per-point derived seed and must return an
	// independent source; tests use it to substitute instrumented or
	// shared streams. Must be safe for concurrent calls when Workers > 1.
	NewRand func(seed int64) *rand.Rand
	// Obs, when non-nil, collects sweep instrumentation: a counter of
	// simulated points and (when Now is also set) a histogram of per-point
	// wall time. Workers share the registry's atomic series, so parallel
	// runs merge without extra coordination.
	Obs *obs.Registry
	// Now supplies wall-clock nanoseconds for the per-point duration
	// histogram. It lives here (not a direct time.Now call) so the package
	// stays deterministic by default; binaries wire time.Now().UnixNano.
	Now func() int64
	// Flight, when non-nil, is asked for a flight writer before each
	// point's ICFF run (return nil to skip a point). The sweep writes the
	// header and topology, records the run, and closes the writer. Must be
	// safe for concurrent calls when Workers > 1.
	Flight func(n int, seed int64) *flight.Writer
	// Perf, when non-nil, collects kernel performance introspection
	// across every point's engine runs (radio.Engine.SetPerf). One shared
	// collector is safe under Workers > 1 — runs fold in atomically — and
	// never changes results.
	Perf *radio.Perf
}

func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (p Params) engineWorkers() int {
	if p.EngineWorkers > 0 {
		return p.EngineWorkers
	}
	return 1
}

// rng constructs the auxiliary random stream for a derived per-point seed.
func (p Params) rng(seed int64) *rand.Rand {
	if p.NewRand != nil {
		return p.NewRand(seed)
	}
	return rand.New(rand.NewSource(seed))
}

// Default returns the paper's published configuration: the 10x10 region
// with 100..500 nodes, 5 seeds per point.
func Default() Params {
	return Params{Side: 10, Sizes: []int{100, 200, 300, 400, 500}, Seeds: 5, BaseSeed: 1}
}

// Quick returns a fast configuration for tests and smoke runs.
func Quick() Params {
	return Params{Side: 8, Sizes: []int{40, 80}, Seeds: 2, BaseSeed: 1}
}

func (p Params) seeds() []int64 {
	out := make([]int64, p.Seeds)
	for i := range out {
		out[i] = p.BaseSeed + int64(i)*7919
	}
	return out
}

// forEachPoint runs fn for every (size, seed) pair — in parallel up to
// Params.Workers — and collects per-size sample maps keyed by metric name.
// Samples within a size are ordered by seed index regardless of completion
// order, so parallel and serial runs produce identical tables.
func forEachPoint(p Params, fn func(net *core.Network, n int, seed int64) (map[string]float64, error)) (map[int]map[string][]float64, error) {
	type point struct {
		n    int
		si   int
		seed int64
	}
	var points []point
	seeds := p.seeds()
	for _, n := range p.Sizes {
		for si, seed := range seeds {
			points = append(points, point{n: n, si: si, seed: seed})
		}
	}

	// Register instrumentation handles once, outside the workers; the
	// handles themselves are atomic, so workers merge lock-free.
	var pointsDone, pointErrs *obs.Counter
	var pointSecs *obs.Histogram
	if p.Obs != nil {
		pointsDone = p.Obs.Counter(MetricExptPoints, "Completed (size, seed) simulation points.")
		pointErrs = p.Obs.Counter(MetricExptErrors, "Simulation points that failed.")
		if p.Now != nil {
			pointSecs = p.Obs.Histogram(MetricExptPointSeconds, "Per-point wall time in seconds.", obs.ExpBuckets(0.001, 2, 16))
		}
	}

	results := make([]map[string]float64, len(points))
	errs := make([]error, len(points))
	sem := make(chan struct{}, p.workers())
	var wg sync.WaitGroup
	for i, pt := range points {
		wg.Add(1)
		go func(i int, pt point) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var start int64
			if pointSecs != nil {
				start = p.Now()
			}
			net, _, err := core.Deploy(p.Side, pt.n, pt.seed, core.Config{})
			if err != nil {
				errs[i] = err
			} else {
				results[i], errs[i] = fn(net, pt.n, pt.seed)
			}
			if pointSecs != nil {
				pointSecs.Observe(float64(p.Now()-start) / 1e9)
			}
			if errs[i] != nil {
				if pointErrs != nil {
					pointErrs.Inc()
				}
				return
			}
			if pointsDone != nil {
				pointsDone.Inc()
			}
		}(i, pt)
	}
	wg.Wait()

	out := make(map[int]map[string][]float64, len(p.Sizes))
	for _, n := range p.Sizes {
		out[n] = make(map[string][]float64)
	}
	for i, pt := range points {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for k, v := range results[i] {
			out[pt.n][k] = append(out[pt.n][k], v)
		}
	}
	return out, nil
}

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }

// safeLeaveCandidate returns a non-root node whose removal keeps the graph
// connected, preferring high IDs (recently joined), or ok=false.
func safeLeaveCandidate(net *core.Network) (graph.NodeID, bool) {
	nodes := net.CNet().Tree().Nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		id := nodes[i]
		if id == net.Root() {
			continue
		}
		res := net.Graph().Clone()
		res.RemoveNode(id)
		if res.Connected() {
			return id, true
		}
	}
	return 0, false
}

// runBoth executes ICFF and DFO broadcasts from the root with the given
// options and returns both metrics. When the sweep has a Flight factory,
// the ICFF run of the point is captured as a flight recording.
func runBoth(p Params, net *core.Network, n int, seed int64, opts broadcast.Options) (icff, dfo broadcast.Metrics, err error) {
	if opts.Workers == 0 {
		// Points run concurrently already; nested engine parallelism
		// would oversubscribe unless the caller asked for it.
		opts.Workers = p.engineWorkers()
	}
	opts.Perf = p.Perf
	icffOpts := opts
	var fw *flight.Writer
	if p.Flight != nil {
		if fw = p.Flight(n, seed); fw != nil {
			fw.WriteHeader(flight.Header{
				Seed: seed, N: n, Side: p.Side, Channels: opts.Channels,
				Source: net.Root(), Protocol: "ICFF",
				LossRate: opts.LossRate, LossSeed: opts.LossSeed,
			})
			netio.RecordTopology(fw, net)
			icffOpts.Flight = fw
		}
	}
	icff, err = net.Broadcast(net.Root(), icffOpts)
	if fw != nil {
		if cerr := fw.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return
	}
	dfo, err = net.BroadcastDFO(net.Root(), opts)
	return
}
