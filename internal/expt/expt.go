// Package expt defines one reproducible experiment per figure of the
// paper's evaluation (Section 6) plus the claims made in the text
// (multi-channel speedup, multicast pruning, robustness, reconfiguration
// cost, Lemma 3 bounds) and two ablations. Each experiment runs the
// protocols on the radio engine at every point of one axis (network size,
// channel count, failure fraction, region side, ...) times several seeds,
// all through one runner, sweep, and returns a text table whose rows are
// the series the paper plots.
//
// The paper's setup: square regions of 8x8, 10x10 and 12x12 units (1 unit
// = 100 m), communication range 50 m, node counts from 64 to 720; the
// published curves use the 10x10 region. Absolute values depend on the
// authors' unavailable simulator; the reproduction target is the shape of
// each curve (see EXPERIMENTS.md).
package expt

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/flight"
	"dynsens/internal/gather"
	"dynsens/internal/graph"
	"dynsens/internal/netio"
	"dynsens/internal/obs"
	"dynsens/internal/radio"
	"dynsens/internal/stats"
)

// Metric names recorded by sweeps given Params.Obs.
const (
	// MetricExptPoints counts completed (row, seed) simulation points.
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
	// Workers bounds the number of (row, seed) points simulated
	// concurrently; 0 means GOMAXPROCS. Every point is an independent
	// seeded simulation, so parallel execution is deterministic: results
	// are aggregated by point, not by arrival order.
	Workers int
	// Obs, when non-nil, collects sweep instrumentation: a counter of
	// simulated points and (when Now is also set) a histogram of per-point
	// wall time. Workers share the registry's atomic series, so parallel
	// runs merge without extra coordination.
	Obs *obs.Registry
	// Now supplies wall-clock nanoseconds for the per-point duration
	// histogram. It lives here (not a direct time.Now call) so the package
	// stays deterministic by default; binaries wire time.Now().UnixNano.
	Now func() int64
	// Flight, when non-nil, is asked for a flight writer before the ICFF
	// run of every Fig. 8, Fig. 9, lifetime and areas point, given the
	// experiment ID, region side, node count and seed. The sweep writes
	// the header and topology, records the run, and closes the writer; an
	// error fails the point. Must be safe for concurrent calls when
	// Workers > 1.
	Flight func(id string, side, n int, seed int64) (*flight.Writer, error)
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

// opts returns the broadcast options every point's engine run starts
// from: the sweep's Perf collector, and one engine worker, since the sweep
// already saturates cores across points and the paper's point sizes sit
// below the engine's parallel threshold anyway. Any worker count yields
// identical results.
func (p Params) opts() broadcast.Options {
	return broadcast.Options{Workers: 1, Perf: p.Perf}
}

// gatherOpts is opts for the convergecast engine.
func (p Params) gatherOpts() gather.Options {
	o := p.opts()
	return gather.Options{Workers: o.Workers, Perf: o.Perf}
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

// samples holds measurements by metric name: one point's while it runs,
// then one row's once sweep merges them.
type samples map[string][]float64

func (s samples) add(key string, v float64) { s[key] = append(s[key], v) }

// sweep is the one loop over an experiment's points: it runs point for
// every (row, seed) pair — in parallel up to Params.Workers — and returns
// each row's samples in row order. The row axis is whatever the
// experiment varies: node counts, channels, failure fractions, region
// sides. Within a row, samples are ordered by seed index, then by the
// order the point added them, regardless of completion order, so parallel
// and serial runs produce identical tables.
func sweep[R any](p Params, rows []R, point func(row R, seed int64, s samples) error) ([]samples, error) {
	seeds := p.seeds()

	// Register instrumentation handles once, outside the workers; the
	// handles themselves are atomic, so workers merge lock-free.
	var pointsDone, pointErrs *obs.Counter
	var pointSecs *obs.Histogram
	if p.Obs != nil {
		pointsDone = p.Obs.Counter(MetricExptPoints, "Completed (row, seed) simulation points.")
		pointErrs = p.Obs.Counter(MetricExptErrors, "Simulation points that failed.")
		if p.Now != nil {
			pointSecs = p.Obs.Histogram(MetricExptPointSeconds, "Per-point wall time in seconds.", obs.ExpBuckets(0.001, 2, 16))
		}
	}

	// A fixed set of workers pulls point indices in order; each point
	// writes only its own results slot.
	results := make([]samples, len(rows)*len(seeds))
	errs := make([]error, len(results))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(p.workers(), len(results)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(results) {
					return
				}
				var start int64
				if pointSecs != nil {
					start = p.Now()
				}
				results[i] = samples{}
				errs[i] = point(rows[i/len(seeds)], seeds[i%len(seeds)], results[i])
				if pointSecs != nil {
					pointSecs.Observe(float64(p.Now()-start) / 1e9)
				}
				if errs[i] != nil {
					if pointErrs != nil {
						pointErrs.Inc()
					}
				} else if pointsDone != nil {
					pointsDone.Inc()
				}
			}
		}()
	}
	wg.Wait()

	out := make([]samples, len(rows))
	for r := range out {
		out[r] = samples{}
		for i := r * len(seeds); i < (r+1)*len(seeds); i++ {
			if errs[i] != nil {
				return nil, errs[i]
			}
			for k, vs := range results[i] {
				out[r][k] = append(out[r][k], vs...)
			}
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

// runBoth deploys experiment id's point (side, n, seed), runs ICFF and
// DFO broadcasts from its root, and fails unless both complete. When the
// sweep has a Flight factory, the ICFF run is captured as a flight
// recording.
func runBoth(p Params, id string, side, n int, seed int64) (net *core.Network, icff, dfo broadcast.Metrics, err error) {
	if net, _, err = core.Deploy(side, n, seed, core.Config{}); err != nil {
		return
	}
	opts := p.opts()
	icffOpts := opts
	var fw *flight.Writer
	if p.Flight != nil {
		if fw, err = p.Flight(id, side, n, seed); err != nil {
			return
		}
		fw.WriteHeader(flight.Header{Seed: seed, N: n, Side: side, Source: net.Root(), Protocol: "ICFF"})
		netio.RecordTopology(fw, net)
		icffOpts.Flight = fw
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
	if dfo, err = net.BroadcastDFO(net.Root(), opts); err != nil {
		return
	}
	if !icff.Completed || !dfo.Completed {
		err = errIncomplete(id, n, seed, icff, dfo)
	}
	return
}
