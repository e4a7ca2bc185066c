package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"

	"dynsens/internal/broadcast"
	"dynsens/internal/flight"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailPercentile is the highest of p90, p99 and p99.9 with at least minTail
// of n samples beyond it, or 0 when even p90 has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(100-p)/100 >= minTail-1e-9 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of the sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// median of unsorted values (the input is not modified).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// digest folds the simulated outcome of every op into one FNV-64a hash. A
// change that only speeds the simulator up must leave it unchanged.
type digest struct{ sum uint64 }

func newDigest() *digest { return &digest{sum: fnv.New64a().Sum64()} }

func (d *digest) fold(vals ...int64) {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], d.sum)
	h.Write(b[:])
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	d.sum = h.Sum64()
}

func (d *digest) hex() string { return fmt.Sprintf("%016x", d.sum) }

// foldMetrics folds the statistics of one protocol run.
func (d *digest) foldMetrics(m broadcast.Metrics) {
	d.fold(int64(m.Rounds), int64(m.Received), int64(m.Audience),
		int64(m.Transmissions), int64(m.Collisions), int64(m.MaxAwake))
}

// Failure kinds, one per way an op can fail.
const (
	failError      = "error"          // a layer returned an error
	failIncomplete = "incomplete"     // a lossless run missed part of its audience
	failBound      = "bound"          // a paper bound was exceeded
	failFlight     = "flight-verify"  // flight.Verify rejected the recording
	failNetwork    = "network-verify" // Network.Verify failed at run end
	failDist       = "dist-mismatch"  // the dist runtime disagreed with the kernel
	failDigest     = "digest"         // the pinned digest did not match
)

// failure says which layer failed an op, how, and why.
type failure struct {
	layer, kind string
	err         error
}

func (f *failure) Error() string { return fmt.Sprintf("%s %s: %v", f.layer, f.kind, f.err) }

func fail(layer, kind string, err error) *failure {
	return &failure{layer: layer, kind: kind, err: err}
}

// tally counts attempted and failed ops, and failures by kind and layer.
type tally struct {
	attempted, failed int
	byKind, byLayer   map[string]int
	first             *failure
}

func newTally() *tally { return &tally{byKind: map[string]int{}, byLayer: map[string]int{}} }

// op counts one attempted op and its failure, if any.
func (t *tally) op(f *failure) {
	t.attempted++
	t.record(f)
}

// record counts a failure found after the ops ran (run-end verification,
// digest), charged to ops already attempted.
func (t *tally) record(f *failure) {
	if f == nil {
		return
	}
	t.failed = min(t.failed+1, t.attempted)
	t.byKind[f.kind]++
	t.byLayer[f.layer]++
	if t.first == nil {
		t.first = f
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// checkRun fails a protocol run that exceeded its round bound or, when it
// ran lossless and failure-free, missed part of its audience.
func checkRun(m broadcast.Metrics, bound int, lossless bool) *failure {
	if m.Rounds > bound {
		return fail("broadcast", failBound, fmt.Errorf("%s ran %d rounds, bound %d", m.Protocol, m.Rounds, bound))
	}
	if lossless && !m.Completed {
		return fail("broadcast", failIncomplete, fmt.Errorf("%s delivered %d/%d", m.Protocol, m.Received, m.Audience))
	}
	return nil
}

// checkFlight fails a recording flight.Verify rejects.
func checkFlight(rep *flight.Report) *failure {
	for _, c := range rep.Checks {
		if c.Err != nil {
			return fail("flight", failFlight, fmt.Errorf("%s: %w", c.Name, c.Err))
		}
	}
	return nil
}

// checkDist fails a dist-runtime run whose metrics differ from the
// kernel's for the same plan.
func checkDist(dist, kernel broadcast.Metrics) *failure {
	if !reflect.DeepEqual(dist, kernel) {
		return fail("dist", failDist, fmt.Errorf("dist %v, kernel %v", dist, kernel))
	}
	return nil
}
