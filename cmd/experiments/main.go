// Command experiments regenerates every table and figure of the paper's
// evaluation (and this reproduction's extensions) as text tables.
//
// Usage:
//
//	experiments [-fig all|8|9|10|11|bounds|channels|multicast|robust|reconfig|areas|ablation|slotcond]
//	            [-side 10] [-sizes 100,200,300,400,500] [-seeds 5] [-baseseed 1]
//	            [-quick] [-workers 0] [-metrics sweep.prom] [-pprof localhost:6060]
//	            [-flight-dir recordings/] [-perf]
//
// With -quick a small sweep runs in a few seconds; the default parameters
// match the paper's published 10x10-unit curves. -metrics dumps sweep
// instrumentation (point counts, per-point wall time) at exit; -pprof
// serves net/http/pprof plus /metrics while the sweep runs.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dynsens/internal/expt"
	"dynsens/internal/flight"
	"dynsens/internal/obs"
	obsperf "dynsens/internal/obs/perf"
	"dynsens/internal/radio"
	"dynsens/internal/stats"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "experiment ID or 'all'")
		side     = flag.Int("side", 10, "region side in 100 m units")
		sizes    = flag.String("sizes", "100,200,300,400,500", "comma-separated node counts")
		seeds    = flag.Int("seeds", 5, "deployments per point")
		baseSeed = flag.Int64("baseseed", 1, "base RNG seed")
		quick    = flag.Bool("quick", false, "small fast sweep")
		list     = flag.Bool("list", false, "list experiments and exit")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		workers  = flag.Int("workers", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		metrics  = flag.String("metrics", "", "write a metrics snapshot here at exit (- for stdout, .json for JSON, else Prometheus text)")
		ppAddr   = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address during the sweep")
		flDir    = flag.String("flight-dir", "", "record the ICFF run of every Fig. 8, Fig. 9, lifetime and areas point in this directory, one <id>-side<S>-n<N>-s<seed>.dsfr file each (replay with: nettool replay)")
		perfOn   = flag.Bool("perf", false, "collect kernel perf introspection across the sweep and print a summary (results unchanged)")
	)
	flag.Parse()

	if *list {
		for _, e := range expt.Catalog() {
			fmt.Printf("%-10s %s\n", e.ID, e.Name)
		}
		return
	}

	p := expt.Params{Side: *side, Seeds: *seeds, BaseSeed: *baseSeed}
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: bad size %q\n", s)
			os.Exit(2)
		}
		p.Sizes = append(p.Sizes, n)
	}
	if *quick {
		p = expt.Quick()
	}
	p.Workers = *workers

	var reg *obs.Registry
	if *metrics != "" || *ppAddr != "" {
		reg = obs.NewRegistry()
		p.Obs = reg
		p.Now = func() int64 { return time.Now().UnixNano() }
	}
	var perf *radio.Perf
	var sampler *obsperf.Sampler
	if *perfOn {
		perf = radio.NewPerf()
		p.Perf = perf
		if reg != nil {
			sampler = obsperf.NewSampler(reg)
			sampler.Start(time.Second)
		}
	}
	if *flDir != "" {
		if err := os.MkdirAll(*flDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		dir := *flDir
		p.Flight = func(id string, side, n int, seed int64) (*flight.Writer, error) {
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-side%d-n%d-s%d.dsfr", id, side, n, seed)))
			if err != nil {
				return nil, fmt.Errorf("flight recording: %w", err)
			}
			return flight.NewWriter(f), nil
		}
	}
	if *ppAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := reg.Snapshot().WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		go func() {
			if err := http.ListenAndServe(*ppAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof+metrics listening on %s\n", *ppAddr)
	}

	var selected []expt.Experiment
	if *fig == "all" {
		selected = expt.Catalog()
	} else {
		e, ok := expt.Find(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *fig)
			os.Exit(2)
		}
		selected = []expt.Experiment{e}
	}
	for _, e := range selected {
		t, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("== %s ==\n", e.Name)
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("expected shape: %s\n\n", e.Notes)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, t); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if perf != nil {
		if sampler != nil {
			sampler.Stop()
		}
		snap := perf.Snapshot()
		if reg != nil {
			obsperf.Publish(reg, snap)
		}
		if err := obsperf.WriteSummary(os.Stdout, snap); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if reg != nil && *metrics != "" {
		if err := dumpMetrics(reg, *metrics); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// dumpMetrics writes the final snapshot per the -metrics convention shared
// with dynsim: "-" means Prometheus text on stdout, a .json suffix selects
// JSON, anything else Prometheus text.
func dumpMetrics(reg *obs.Registry, path string) error {
	snap := reg.Snapshot()
	if path == "-" {
		return snap.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var werr error
	if strings.HasSuffix(path, ".json") {
		werr = snap.WriteJSON(f)
	} else {
		werr = snap.WritePrometheus(f)
	}
	if werr != nil {
		return werr
	}
	return f.Close()
}

func writeCSV(dir, id string, t *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + id + ".csv")
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}
