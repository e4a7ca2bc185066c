// Command dynsim runs one simulated scenario: it deploys a sensor network,
// builds the cluster structure, assigns time-slots, runs a broadcast,
// multicast or convergecast, and prints structural statistics and measured
// protocol metrics.
//
// The topology and protocol flags describe an in-memory .dsn scenario;
// -scenario runs a scenario file instead. Both go through the one scenario
// runner (internal/scenario), so every sink flag (-metrics, -events,
// -record, -record-ring, -perf, -pprof, -v) works in both modes, and every
// flight-capable run is recorded in memory and re-verified offline.
//
// Examples:
//
//	dynsim -n 300 -side 10 -protocol icff
//	dynsim -n 300 -protocol dfo -failfrac 0.1
//	dynsim -n 200 -protocol multicast -groupfrac 0.2 -channels 4
//	dynsim -n 200 -protocol gather
//	dynsim -n 300 -metrics metrics.prom -events trace.jsonl
//	dynsim -n 500 -pprof localhost:6060
//	dynsim -scenario testdata/scenarios/positive/sparse-rgg-icff.dsn
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"time"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/dist"
	"dynsens/internal/graph"
	"dynsens/internal/obs"
	obsperf "dynsens/internal/obs/perf"
	"dynsens/internal/radio"
	"dynsens/internal/scenario"
)

func main() {
	var cfg runConfig
	flag.IntVar(&cfg.N, "n", 200, "number of nodes")
	flag.IntVar(&cfg.Side, "side", 10, "region side in 100 m units")
	flag.Int64Var(&cfg.Seed, "seed", 1, "deployment seed")
	flag.StringVar(&cfg.Protocol, "protocol", "icff", "icff|cff|dfo|multicast|gather|discovery")
	flag.IntVar(&cfg.Channels, "channels", 1, "radio channels k")
	flag.IntVar(&cfg.Workers, "workers", 0, "radio engine shard workers (0 = auto; results are identical at any value)")
	flag.IntVar(&cfg.Source, "source", 0, "broadcast source node ID")
	flag.Float64Var(&cfg.FailFrac, "failfrac", 0, "fraction of nodes failing mid-broadcast")
	flag.Float64Var(&cfg.GroupFrac, "groupfrac", 0.2, "multicast group membership probability")
	flag.BoolVar(&cfg.Verbose, "v", false, "print per-event trace")
	flag.StringVar(&cfg.MetricsPath, "metrics", "", "write a metrics snapshot here at exit (- for stdout, .json for JSON, else Prometheus text)")
	flag.StringVar(&cfg.EventsPath, "events", "", "write radio events as JSONL here")
	flag.StringVar(&cfg.PprofAddr, "pprof", "", "serve net/http/pprof and /metrics on this address during the run")
	flag.StringVar(&cfg.RecordPath, "record", "", "write a binary flight recording here (replay with: nettool replay)")
	flag.IntVar(&cfg.RecordRing, "record-ring", 0, "bound the recording to the last N radio events (0 = keep all)")
	flag.BoolVar(&cfg.Perf, "perf", false, "collect kernel perf introspection and print a per-phase/per-shard summary (results are byte-identical either way)")
	flag.StringVar(&cfg.Runtime, "runtime", "", "execution runtime: kernel (in-process, default) or dist (message-passing actor nodes; byte-identical results)")
	flag.StringVar(&cfg.DNode, "dnode", "", "path to a dnode binary: run each node as its own OS process (implies -runtime dist; scenario mode only)")
	flag.StringVar(&cfg.Scenario, "scenario", "", "run a declarative .dsn scenario file instead of the topology/protocol flags (exit 1 if an assertion fails; see docs/scenarios.md)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dynsim: %v\n", err)
		os.Exit(1)
	}
}

// runConfig carries every knob of one run; tests build it directly.
type runConfig struct {
	// Scenario, when non-empty, is a .dsn file to run; its spec replaces
	// the topology/protocol fields below, while -workers and -runtime
	// still override it.
	Scenario string

	N, Side  int
	Seed     int64
	Protocol string
	Channels int
	// Workers is the radio engine's shard-worker count; 0 lets the engine
	// choose. Purely a wall-clock knob: the simulation is byte-identical
	// at any value.
	Workers   int
	Source    int
	FailFrac  float64
	GroupFrac float64
	Verbose   bool
	// MetricsPath, when non-empty, receives a metrics snapshot at exit:
	// "-" writes Prometheus text to stdout, a ".json" suffix selects JSON,
	// anything else Prometheus text.
	MetricsPath string
	// EventsPath, when non-empty, receives the radio event stream as JSONL.
	EventsPath string
	// PprofAddr, when non-empty, serves net/http/pprof plus a /metrics
	// endpoint on that address for the duration of the run.
	PprofAddr string
	// RecordPath, when non-empty, receives a binary flight recording of
	// the run (topology, churn deltas, every radio event, phase markers);
	// RecordRing > 0 bounds it to the last N radio events.
	RecordPath string
	RecordRing int
	// Perf enables kernel performance introspection: per-phase wall
	// times, shard busy/imbalance, and (with -metrics/-pprof) the
	// dynsens_kernel_* series plus a background runtime sampler. Strictly
	// read-only — simulation output is byte-identical either way.
	Perf bool
	// Runtime selects the execution runtime: "" or "kernel" runs the
	// in-process radio kernel, "dist" hosts each Program as a
	// message-passing actor node that the same kernel drives through frame
	// barriers. Results are byte-identical.
	Runtime string
	// DNode, when non-empty, is the path to a dnode binary: the dist
	// runtime launches one OS process per node (scenario mode only, since
	// the children rebuild their Programs from the scenario file).
	DNode string
}

// scenario loads the -scenario file, or turns the topology/protocol flags
// into an in-memory scenario. The flag scenario is formatted as .dsn text
// and parsed back, so it passes exactly the validation a file does.
func (c runConfig) scenario() (*scenario.Scenario, error) {
	if c.Scenario != "" {
		return scenario.Load(c.Scenario)
	}
	if c.GroupFrac == 0 && c.Protocol == "multicast" {
		return nil, fmt.Errorf("-groupfrac 0 cannot be expressed: a scenario reads group-frac = 0 as its default")
	}
	s := &scenario.Scenario{Spec: scenario.Spec{
		Name: "dynsim", N: c.N, Side: c.Side, Seed: c.Seed, Protocol: c.Protocol,
		Channels: c.Channels, Workers: c.Workers, Runtime: c.Runtime,
		Source: graph.NodeID(c.Source), GroupFrac: c.GroupFrac, Joiner: -1,
	}}
	if c.FailFrac != 0 {
		s.Script = []scenario.Step{{Verb: scenario.VerbFailFrac, Frac: c.FailFrac}}
	}
	return scenario.Parse(s.Format())
}

// run executes one scenario through the shared runner and writes every
// requested sink. It fails on a setup error and when any check — an
// assertion, or the offline re-verification of the recording — fails.
func run(cfg runConfig) error {
	s, err := cfg.scenario()
	if err != nil {
		return err
	}
	opts := scenario.RunOptions{
		Workers: cfg.Workers, Runtime: cfg.Runtime,
		Record: cfg.RecordPath != "", RecordRing: cfg.RecordRing,
		Verify: scenario.FlightCapable(s.Spec.Protocol),
	}
	if cfg.DNode != "" {
		if cfg.Scenario == "" {
			return fmt.Errorf("-dnode needs -scenario (the children reload the scenario file)")
		}
		opts.Runtime = broadcast.RuntimeDist
		opts.Fleet = &dist.ProcFleet{Command: func(id graph.NodeID) *exec.Cmd {
			return exec.Command(cfg.DNode, "-scenario", cfg.Scenario, "-node", fmt.Sprint(id))
		}}
	}

	if cfg.MetricsPath != "" || cfg.PprofAddr != "" {
		opts.Obs = obs.NewRegistry()
	}
	if cfg.PprofAddr != "" {
		srv := &http.Server{Addr: cfg.PprofAddr, Handler: pprofMux(opts.Obs)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "dynsim: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof+metrics listening on %s\n", cfg.PprofAddr)
	}
	var sampler *obsperf.Sampler
	if cfg.Perf {
		opts.Perf = radio.NewPerf()
		if opts.Obs != nil {
			sampler = obsperf.NewSampler(opts.Obs)
			sampler.Start(250 * time.Millisecond)
			defer sampler.Stop()
		}
	}
	if cfg.Verbose {
		opts.TraceBatch = printEvents
	}
	var eventsFile *os.File
	var sink *obs.EventSink
	if cfg.EventsPath != "" {
		if eventsFile, err = os.Create(cfg.EventsPath); err != nil {
			return err
		}
		defer eventsFile.Close()
		sink = obs.NewEventSink(eventsFile)
		opts.TraceBatch = obs.ChainBatchHooks(opts.TraceBatch, sink.BatchHook())
	}

	res, err := scenario.Run(s, opts)
	if err != nil {
		return err
	}
	writeStructure(res.Stats, s.Spec.Side)
	if err := res.Write(os.Stdout); err != nil {
		return err
	}
	if cfg.RecordPath != "" {
		if err := os.WriteFile(cfg.RecordPath, res.Recording, 0o644); err != nil {
			return err
		}
		fmt.Printf("recorded %d bytes to %s\n", len(res.Recording), cfg.RecordPath)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			return fmt.Errorf("event sink: %w", err)
		}
		if err := eventsFile.Close(); err != nil {
			return fmt.Errorf("event sink: %w", err)
		}
		fmt.Printf("wrote %d events to %s\n", sink.Events(), cfg.EventsPath)
	}
	if opts.Perf != nil {
		if sampler != nil {
			sampler.Stop()
		}
		snap := opts.Perf.Snapshot()
		if opts.Obs != nil {
			obsperf.Publish(opts.Obs, snap)
		}
		if err := obsperf.WriteSummary(os.Stdout, snap); err != nil {
			return err
		}
	}
	if cfg.MetricsPath != "" {
		if err := writeMetrics(opts.Obs, cfg.MetricsPath); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		if cfg.MetricsPath != "-" {
			fmt.Printf("wrote metrics snapshot to %s\n", cfg.MetricsPath)
		}
	}
	if f := res.Failures(); len(f) > 0 {
		return fmt.Errorf("scenario %s: %d of %d checks failed", s.Name(), len(f), len(res.Outcomes))
	}
	return nil
}

// writeStructure prints the built network's structure lines.
func writeStructure(st core.Snapshot, side int) {
	fmt.Printf("network: %d nodes on %dx%d units (range 50 m)\n", st.Nodes, side, side)
	fmt.Printf("structure: clusters=%d gateways=%d members=%d height=%d\n",
		st.Clusters, st.Gateways, st.Members, st.Height)
	fmt.Printf("backbone: size=%d height=%d\n", st.BackboneSize, st.BackboneHeight)
	fmt.Printf("degrees/slots: D=%d d=%d Delta=%d delta=%d (Lemma 3 bounds %d / %d)\n",
		st.DegreeG, st.DegreeBT, st.Delta, st.SmallDelta, st.BoundL, st.BoundB)
}

// printEvents is the -v trace: one line per transmission, delivery,
// collision and node death.
func printEvents(evs []radio.Event) {
	for _, ev := range evs {
		switch ev.Kind {
		case radio.EvTransmit:
			fmt.Printf("  r%-4d tx   node %d ch %d\n", ev.Round, ev.Node, ev.Channel)
		case radio.EvDeliver:
			fmt.Printf("  r%-4d rx   node %d <- %d ch %d\n", ev.Round, ev.Node, ev.Peer, ev.Channel)
		case radio.EvCollision:
			fmt.Printf("  r%-4d coll node %d ch %d\n", ev.Round, ev.Node, ev.Channel)
		case radio.EvNodeFail:
			fmt.Printf("  r%-4d DIED node %d\n", ev.Round, ev.Node)
		}
	}
}

// pprofMux builds the profiling mux by hand: the binary deliberately avoids
// http.DefaultServeMux so -pprof exposes exactly pprof and /metrics.
func pprofMux(reg *obs.Registry) *http.ServeMux {
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
	return mux
}

// writeMetrics dumps the final snapshot per the -metrics convention.
func writeMetrics(reg *obs.Registry, path string) error {
	snap := reg.Snapshot()
	if path == "-" {
		return snap.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 5 && path[len(path)-5:] == ".json" {
		err = snap.WriteJSON(f)
	} else {
		err = snap.WritePrometheus(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}
