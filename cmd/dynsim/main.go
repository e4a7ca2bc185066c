// Command dynsim runs one simulated scenario: it deploys a sensor network,
// builds the cluster structure, assigns time-slots, runs a broadcast or
// multicast, and prints structural statistics and measured protocol
// metrics.
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
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"strings"
	"time"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/dist"
	"dynsens/internal/flight"
	"dynsens/internal/gather"
	"dynsens/internal/graph"
	"dynsens/internal/netio"
	"dynsens/internal/obs"
	obsperf "dynsens/internal/obs/perf"
	"dynsens/internal/radio"
	"dynsens/internal/scenario"
	"dynsens/internal/workload"
)

func main() {
	var cfg runConfig
	flag.IntVar(&cfg.N, "n", 200, "number of nodes")
	flag.IntVar(&cfg.Side, "side", 10, "region side in 100 m units")
	flag.Int64Var(&cfg.Seed, "seed", 1, "deployment seed")
	flag.StringVar(&cfg.Protocol, "protocol", "icff", "icff|cff|dfo|multicast|gather")
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
	scenarioPath := flag.String("scenario", "", "run a declarative .dsn scenario file instead (exit 1 if an assertion fails; see docs/scenarios.md)")
	flag.Parse()

	switch cfg.Runtime {
	case "", broadcast.RuntimeKernel, broadcast.RuntimeDist:
	default:
		fmt.Fprintf(os.Stderr, "dynsim: unknown -runtime %q (kernel|dist)\n", cfg.Runtime)
		os.Exit(1)
	}
	if cfg.DNode != "" {
		cfg.Runtime = broadcast.RuntimeDist
		if *scenarioPath == "" {
			fmt.Fprintln(os.Stderr, "dynsim: -dnode needs -scenario (the children reload the scenario file)")
			os.Exit(1)
		}
	}

	if *scenarioPath != "" {
		os.Exit(runScenario(*scenarioPath, cfg))
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dynsim: %v\n", err)
		os.Exit(1)
	}
}

// runScenario executes a .dsn scenario file through the shared scenario
// runner. The file's spec overrides dynsim's topology/protocol flags;
// -workers and -record still apply.
func runScenario(path string, cfg runConfig) int {
	s, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynsim: %v\n", err)
		return 1
	}
	opts := scenario.RunOptions{Workers: cfg.Workers, Record: cfg.RecordPath != "", Runtime: cfg.Runtime}
	if scenario.FlightCapable(s.Spec.Protocol) {
		opts.Verify = true
	}
	if cfg.DNode != "" {
		opts.Fleet = &dist.ProcFleet{Command: func(id graph.NodeID) *exec.Cmd {
			return exec.Command(cfg.DNode, "-scenario", path, "-node", fmt.Sprint(id))
		}}
	}
	res, err := scenario.Run(s, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynsim: %v\n", err)
		return 1
	}
	if err := res.Write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dynsim: %v\n", err)
		return 1
	}
	if cfg.RecordPath != "" {
		if err := os.WriteFile(cfg.RecordPath, res.Recording, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dynsim: %v\n", err)
			return 1
		}
		fmt.Printf("recorded %d bytes to %s\n", len(res.Recording), cfg.RecordPath)
	}
	if !res.Passed() {
		return 1
	}
	return 0
}

// runConfig carries every knob of one scenario; tests build it directly.
type runConfig struct {
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

// wantObs reports whether the scenario needs a metrics registry at all.
func (c runConfig) wantObs() bool {
	return c.MetricsPath != "" || c.PprofAddr != ""
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

// flightDelta converts a live cnet churn delta to its recorded form.
func flightDelta(d cnet.Delta) flight.Delta {
	kind := flight.DeltaMoveIn
	switch d.Kind {
	case cnet.DeltaMoveOut:
		kind = flight.DeltaMoveOut
	case cnet.DeltaCrash:
		kind = flight.DeltaCrash
	}
	return flight.Delta{
		Kind: kind, Node: d.Node, Peer: flight.NoParent,
		Reinserted: d.Reinserted, Dropped: d.Dropped, RootChanged: d.RootChanged,
	}
}

func run(cfg runConfig) error {
	d, err := workload.IncrementalConnected(workload.PaperConfig(cfg.Seed, cfg.Side, cfg.N))
	if err != nil {
		return err
	}
	var fw *flight.Writer
	coreCfg := core.Config{}
	if cfg.RecordPath != "" {
		if cfg.Protocol == "gather" {
			return fmt.Errorf("-record supports broadcast protocols, not gather")
		}
		rf, err := os.Create(cfg.RecordPath)
		if err != nil {
			return err
		}
		if cfg.RecordRing > 0 {
			fw = flight.NewRingWriter(rf, cfg.RecordRing)
		} else {
			fw = flight.NewWriter(rf)
		}
		fw.WriteHeader(flight.Header{
			Seed: cfg.Seed, N: cfg.N, Side: cfg.Side, Channels: cfg.Channels,
			Source: graph.NodeID(cfg.Source), Protocol: strings.ToUpper(cfg.Protocol),
			RingLimit: cfg.RecordRing,
		})
		coreCfg.DeltaHook = func(d cnet.Delta) { fw.WriteDelta(flightDelta(d)) }
	}
	net, err := core.Build(d.Graph(), coreCfg)
	if err != nil {
		return err
	}
	if err := net.Verify(); err != nil {
		return err
	}
	if fw != nil {
		netio.RecordTopology(fw, net)
	}

	var reg *obs.Registry
	if cfg.wantObs() {
		reg = obs.NewRegistry()
		net.CNet().Instrument(reg)
		net.Slots().Record(reg)
	}
	if cfg.PprofAddr != "" {
		srv := &http.Server{Addr: cfg.PprofAddr, Handler: pprofMux(reg)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "dynsim: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof+metrics listening on %s\n", cfg.PprofAddr)
	}

	st := net.Stats()
	fmt.Printf("network: %d nodes on %dx%d units (range 50 m)\n", st.Nodes, cfg.Side, cfg.Side)
	fmt.Printf("structure: clusters=%d gateways=%d members=%d height=%d\n",
		st.Clusters, st.Gateways, st.Members, st.Height)
	fmt.Printf("backbone: size=%d height=%d\n", st.BackboneSize, st.BackboneHeight)
	fmt.Printf("degrees/slots: D=%d d=%d Delta=%d delta=%d (Lemma 3 bounds %d / %d)\n",
		st.DegreeG, st.DegreeBT, st.Delta, st.SmallDelta, st.BoundL, st.BoundB)

	if cfg.Runtime == broadcast.RuntimeDist && cfg.Protocol == "gather" {
		return fmt.Errorf("-runtime dist supports broadcast protocols, not gather")
	}
	opts := broadcast.Options{Channels: cfg.Channels, Workers: cfg.Workers, Obs: reg, Runtime: cfg.Runtime}
	var perf *radio.Perf
	var sampler *obsperf.Sampler
	if cfg.Perf {
		perf = radio.NewPerf()
		opts.Perf = perf
		if reg != nil {
			sampler = obsperf.NewSampler(reg)
			sampler.Start(250 * time.Millisecond)
		}
	}
	if cfg.Verbose {
		opts.Trace = func(ev radio.Event) {
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
	var eventsFile *os.File
	if cfg.EventsPath != "" {
		eventsFile, err = os.Create(cfg.EventsPath)
		if err != nil {
			return err
		}
		defer eventsFile.Close()
		sink := obs.NewEventSink(eventsFile)
		opts.Trace = obs.ChainHooks(opts.Trace, sink.Hook())
		defer func() {
			if serr := sink.Err(); serr != nil {
				fmt.Fprintf(os.Stderr, "dynsim: event sink: %v\n", serr)
			} else {
				fmt.Printf("wrote %d events to %s\n", sink.Events(), cfg.EventsPath)
			}
		}()
	}
	if cfg.FailFrac > 0 {
		horizon := 2 * (st.BackboneSize - 1)
		if horizon < 1 {
			horizon = 1
		}
		for _, f := range workload.FailureTrace(net.Graph(), net.Root(), cfg.FailFrac, horizon, cfg.Seed*17) {
			opts.Failures = append(opts.Failures, broadcast.NodeFailure{Node: f.Node, Round: f.Round})
		}
		fmt.Printf("injected %d node failures\n", len(opts.Failures))
	}
	if fw != nil {
		for _, f := range opts.Failures {
			fw.WriteDelta(flight.Delta{
				Kind: flight.DeltaNodeFail, Node: f.Node, Peer: flight.NoParent, Round: f.Round,
			})
		}
		opts.Flight = fw
	}

	src := graph.NodeID(cfg.Source)
	var m broadcast.Metrics
	switch cfg.Protocol {
	case "icff":
		m, err = net.Broadcast(src, opts)
	case "cff":
		m, err = net.BroadcastCFF(src, opts)
	case "dfo":
		m, err = net.BroadcastDFO(src, opts)
	case "gather":
		values := make(map[graph.NodeID]int64)
		var want int64
		for _, id := range net.CNet().Tree().Nodes() {
			values[id] = int64(id) + 1
			want += int64(id) + 1
		}
		var gfails []gather.Failure
		for _, f := range opts.Failures {
			gfails = append(gfails, gather.Failure{Node: f.Node, Round: f.Round})
		}
		gm, err := net.Gather(values, gather.Options{Failures: gfails, Workers: cfg.Workers, Perf: perf})
		if err != nil {
			return err
		}
		fmt.Println(gm)
		fmt.Printf("expected sum %d; reporting fraction %.3f\n", want,
			float64(gm.Reporting)/float64(gm.Nodes))
		if err := finishPerf(perf, sampler, reg); err != nil {
			return err
		}
		return finishMetrics(reg, cfg)
	case "multicast":
		rng := rand.New(rand.NewSource(cfg.Seed * 31))
		joined := 0
		for _, id := range net.CNet().Tree().Nodes() {
			if rng.Float64() < cfg.GroupFrac {
				if err := net.JoinGroup(id, 1); err != nil {
					return err
				}
				joined++
			}
		}
		if joined == 0 {
			if err := net.JoinGroup(net.Root(), 1); err != nil {
				return err
			}
			joined = 1
		}
		fmt.Printf("multicast group 1: %d members\n", joined)
		m, err = net.Multicast(1, src, opts)
	default:
		return fmt.Errorf("unknown protocol %q", cfg.Protocol)
	}
	if err != nil {
		return err
	}
	fmt.Println(m)
	fmt.Printf("delivery ratio: %.3f\n", m.DeliveryRatio())
	if fw != nil {
		if err := fw.Close(); err != nil {
			return fmt.Errorf("flight recording: %w", err)
		}
		if n := fw.Dropped(); n > 0 {
			fmt.Printf("wrote flight recording to %s (ring mode, %d oldest events dropped)\n", cfg.RecordPath, n)
		} else {
			fmt.Printf("wrote flight recording to %s\n", cfg.RecordPath)
		}
	}
	if err := finishPerf(perf, sampler, reg); err != nil {
		return err
	}
	return finishMetrics(reg, cfg)
}

// finishPerf stops the runtime sampler, publishes the perf collector into
// the registry (so the -metrics dump carries the dynsens_kernel_* series)
// and prints the per-phase summary table.
func finishPerf(perf *radio.Perf, sampler *obsperf.Sampler, reg *obs.Registry) error {
	if perf == nil {
		return nil
	}
	if sampler != nil {
		sampler.Stop()
	}
	snap := perf.Snapshot()
	if reg != nil {
		obsperf.Publish(reg, snap)
	}
	return obsperf.WriteSummary(os.Stdout, snap)
}

// finishMetrics writes the -metrics dump, if requested.
func finishMetrics(reg *obs.Registry, cfg runConfig) error {
	if reg == nil || cfg.MetricsPath == "" {
		return nil
	}
	if err := writeMetrics(reg, cfg.MetricsPath); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	if cfg.MetricsPath != "-" {
		fmt.Printf("wrote metrics snapshot to %s\n", cfg.MetricsPath)
	}
	return nil
}
