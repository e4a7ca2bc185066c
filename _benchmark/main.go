// Command dynbench is the repository's benchmark: one closed-loop client
// goroutine runs seeded ops of one workload against the library for a
// fixed time, checks every output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a traced run) as a table and, on
// its last line, as one JSON object.
//
//	go run . -workload construct -seed 1 -seconds 20 -trace 0
//
// See NOTES.md for the workloads, the metrics and how to read the trace.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynsens/internal/radio"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 3
	// minOps is the fewest timed ops a run makes: enough for minTail
	// samples beyond p90, and the ops the digest covers.
	minOps = 100
)

// pinnedDigests holds, per workload and seed, the digest of the first
// minOps ops at the default network size.
//
//go:embed digests.json
var pinnedDigests []byte

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	n        int
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dynbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "construct, broadcast, churn or dist")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed ops")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	fs.IntVar(&cfg.n, "n", 0, "network size (0: the workload's default; other sizes skip the digest)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	res, err := bench(*w, cfg)
	if err != nil {
		return err
	}
	return res.write(stdout)
}

// metric is one reported figure.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// result is what one run prints.
type result struct {
	cfg     config
	n       int
	tally   *tally
	digest  string
	pinned  string
	metrics []metric
	notes   []string
}

// loop drives timed ops and accumulates what they report.
type loop struct {
	r          runner
	digest     *digest
	tally      *tally
	lat        []float64 // op latencies, ms
	rss        []float64 // each op's peak resident set, MB
	nodeRounds int64
	awake      int64
}

// run issues ops until dur has passed, at least atLeast ops have run in
// total and the op count is a multiple of the runner's period, and returns
// the time it took. The first minOps ops feed the digest.
func (l *loop) run(tr *tracer, dur time.Duration, atLeast int) time.Duration {
	start := time.Now()
	period := l.r.period()
	for {
		el := time.Since(start)
		if el >= dur && len(l.lat) >= atLeast && len(l.lat)%period == 0 {
			return el
		}
		i := len(l.lat)
		tr.setOp(i)
		t0 := time.Now()
		o := l.r.op(i, tr)
		l.lat = append(l.lat, float64(time.Since(t0))/1e6)
		l.rss = append(l.rss, peakRSSMB())
		l.tally.op(o.fail)
		l.nodeRounds += o.nodeRounds
		l.awake += o.awake
		if i < minOps {
			l.r.fold(l.digest, i, o)
		}
	}
}

func bench(w workloadDef, cfg config) (*result, error) {
	n := w.n
	if cfg.n > 0 {
		n = cfg.n
	}
	count := &counters{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		count.kernel = radio.NewPerf()
	}
	e := env{seed: cfg.seed, n: n, count: count}

	var r runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if r, err = w.setup(e, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := &result{cfg: cfg, n: n, tally: newTally()}
	l := &loop{r: r, digest: newDigest(), tally: res.tally}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	ops := minOps
	if n != w.n {
		ops = 1 // a scale probe: no digest, no tail percentile
	}
	if !cfg.trace {
		el := l.run(nil, dur, ops)
		res.metrics = endToEnd(setups, l, el)
		if w.simThroughput {
			res.notes = append(res.notes, fmt.Sprintf("%-32s %14.4f  %-8s %d",
				"node_rounds_per_s", float64(l.nodeRounds)/el.Seconds(), "1/s", len(l.lat)))
		}
	} else {
		// First half untraced, second half traced: the difference in
		// ops_per_s is the tracing overhead.
		elA := l.run(nil, dur/2, 1)
		opsA := len(l.lat)
		lr := startLayerRun(l, count)
		elB := l.run(tr, dur/2, ops)
		res.metrics, res.notes = lr.finish(tr, l, count, float64(opsA)/elA.Seconds(), elB)
	}
	if f := r.finish(); f != nil {
		res.tally.record(f)
	}
	res.digest = l.digest.hex()
	if n == w.n {
		pins := map[string]map[string]string{}
		if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
			return nil, fmt.Errorf("digests.json: %w", err)
		}
		res.pinned = pins[w.name][strconv.FormatInt(cfg.seed, 10)]
		if res.pinned != "" && res.pinned != res.digest {
			res.tally.record(fail("benchmark", failDigest,
				fmt.Errorf("digest %s, pinned %s", res.digest, res.pinned)))
		}
	}
	return res, nil
}

// endToEnd computes the untraced run's metrics.
func endToEnd(setups []float64, l *loop, el time.Duration) []metric {
	ops := len(l.lat)
	sorted := append([]float64(nil), l.lat...)
	sort.Float64s(sorted)
	sec := el.Seconds()
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"ops_per_s", float64(ops) / sec, "1/s", ops},
		{"op_p50_ms", percentile(sorted, 50), "ms", ops},
		{"op_p90_ms", percentile(sorted, 90), "ms", ops},
		{"peak_rss_mb", median(l.rss), "MB", len(l.rss)},
	}
}

// peakRSSMB reads the peak resident set size (VmHWM) and resets it, so
// each call returns the peak since the previous one. Where the reset is
// refused the peak stays the process's.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
	for _, line := range strings.Split(string(raw), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// write prints the table, then the JSON result as the last line.
func (r *result) write(w io.Writer) error {
	t := r.tally
	fmt.Fprintf(w, "workload %s  seed %d  n %d  trace %v  GOMAXPROCS %d of %d CPUs  engine workers default\n",
		r.cfg.workload, r.cfg.seed, r.n, r.cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "%-32s %14s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %14.4f  %-8s %d\n", m.name, m.value, m.unit, m.samples)
	}
	if !r.cfg.trace {
		if p := tailPercentile(t.attempted); p > 90 {
			fmt.Fprintf(w, "(the highest percentile with %d samples beyond it is p%g)\n", minTail, p)
		}
	}
	fmt.Fprintf(w, "%-32s %14.4f  %-8s %d\n", "error_rate", t.errorRate(), "ratio", t.attempted)
	for _, line := range r.notes {
		fmt.Fprintln(w, line)
	}
	pin := "none pinned for this seed and size"
	switch {
	case r.pinned == r.digest:
		pin = "matches the pin"
	case r.pinned != "":
		pin = "MISMATCH, pinned " + r.pinned
	}
	fmt.Fprintf(w, "digest %s (%s)\n", r.digest, pin)
	if t.first != nil {
		fmt.Fprintf(w, "first failure: %v (by kind %v)\n", t.first, t.byKind)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
