// Command nettool builds a network and exports it: as indented JSON
// (deployment geometry, cluster structure, time-slots, group lists) for
// external tooling, or as an ASCII map of the field for a quick look. The
// "metrics" subcommand instead runs the scenario its flags describe
// through the shared scenario runner with a metrics registry attached and
// renders the snapshot as a table; the "replay" subcommand loads
// a flight recording made with dynsim -record, re-checks the paper's
// invariants offline, and can export Chrome trace-event JSON, render the
// timeline, walk one message's causal span tree, or explain why a node
// never received. The "scenario" subcommand runs declarative .dsn scenario
// files (see docs/scenarios.md): "scenario run" executes one through the
// live stack and exits 1 if any assertion fails, "scenario verify"
// re-evaluates a scenario's assertions offline against an existing
// recording, and "scenario fmt" canonicalizes scenario files. The "perf"
// subcommand works on BENCH_*.json files (or raw `go test -bench`
// output): "perf report" renders one, "perf diff" compares two and exits
// 1 on a regression past -fail, "perf import" converts raw bench output
// to the JSON schema with honest host metadata (see docs/performance.md).
//
// Examples:
//
//	nettool -n 200 -json out.json
//	nettool -n 200 -ascii
//	nettool -n 150 -groups 3 -json - | jq '.nodes[0]'
//	nettool metrics -n 200 -protocol icff
//	nettool replay run.dsfr
//	nettool replay run.dsfr -chrome-trace trace.json
//	nettool replay run.dsfr -why-missed 17
//	nettool scenario run testdata/scenarios/positive/sparse-rgg-icff.dsn
//	nettool scenario run examples/churn/churn.dsn -record churn.dsfr
//	nettool scenario verify examples/churn/churn.dsn churn.dsfr
//	nettool scenario fmt -l testdata/scenarios/positive/*.dsn
//	nettool perf report BENCH_PR7.json
//	nettool perf diff -warn 15 -fail 50 scripts/bench_baseline.json /tmp/bench.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"dynsens/internal/core"
	"dynsens/internal/netio"
	"dynsens/internal/obs"
	"dynsens/internal/scenario"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scenario" {
		os.Exit(runScenarioCmd(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "perf" {
		os.Exit(runPerfCmd(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		// Accept both "replay <file> -flags" and "replay -flags <file>".
		fs := flag.NewFlagSet("nettool replay", flag.ExitOnError)
		var (
			chromePath = fs.String("chrome-trace", "", "export Chrome trace-event JSON to this path ('-' for stdout; load in Perfetto)")
			timeline   = fs.Bool("timeline", false, "print the per-round event timeline")
			span       = fs.Int("span", -1, "print the causal span tree of this message seq")
			whyMissed  = fs.Int("why-missed", -1, "explain why this node never received the payload")
		)
		args := os.Args[2:]
		var path string
		if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
			path, args = args[0], args[1:]
		}
		// ExitOnError: Parse cannot return a non-nil error here.
		_ = fs.Parse(args)
		if path == "" && fs.NArg() > 0 {
			path = fs.Arg(0)
		}
		if path == "" {
			fmt.Fprintln(os.Stderr, "nettool: replay needs a recording file (made with dynsim -record)")
			os.Exit(2)
		}
		ok, err := runReplay(os.Stdout, path, *chromePath, *timeline, *span, *whyMissed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nettool: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		fs := flag.NewFlagSet("nettool metrics", flag.ExitOnError)
		var (
			n        = fs.Int("n", 200, "number of nodes")
			side     = fs.Int("side", 10, "region side in 100 m units")
			seed     = fs.Int64("seed", 1, "deployment seed")
			protocol = fs.String("protocol", "icff", "scenario protocol: icff|cff|dfo|multicast|gather|discovery")
			channels = fs.Int("channels", 1, "radio channels k")
		)
		// ExitOnError: Parse cannot return a non-nil error here.
		_ = fs.Parse(os.Args[2:])
		if err := runMetrics(os.Stdout, *n, *side, *seed, *protocol, *channels); err != nil {
			fmt.Fprintf(os.Stderr, "nettool: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		n        = flag.Int("n", 200, "number of nodes")
		side     = flag.Int("side", 10, "region side in 100 m units")
		seed     = flag.Int64("seed", 1, "deployment seed")
		groups   = flag.Int("groups", 0, "assign this many random multicast groups")
		jsonPath = flag.String("json", "", "write JSON to this path ('-' for stdout)")
		dotPath  = flag.String("dot", "", "write a Graphviz rendering to this path ('-' for stdout)")
		svgPath  = flag.String("svg", "", "write an SVG rendering to this path ('-' for stdout)")
		ascii    = flag.Bool("ascii", false, "print an ASCII map")
		cols     = flag.Int("cols", 72, "ASCII map width")
		rows     = flag.Int("rows", 28, "ASCII map height")
	)
	flag.Parse()

	if err := run(*n, *side, *seed, *groups, *jsonPath, *dotPath, *svgPath, *ascii, *cols, *rows); err != nil {
		fmt.Fprintf(os.Stderr, "nettool: %v\n", err)
		os.Exit(1)
	}
}

func run(n, side int, seed int64, groups int, jsonPath, dotPath, svgPath string, ascii bool, cols, rows int) error {
	net, d, err := core.Deploy(side, n, seed, core.Config{})
	if err != nil {
		return err
	}
	if groups > 0 {
		rng := rand.New(rand.NewSource(seed * 7))
		for _, id := range net.CNet().Tree().Nodes() {
			g := 1 + rng.Intn(groups)
			if err := net.JoinGroup(id, g); err != nil {
				return err
			}
		}
	}

	if ascii {
		fmt.Print(netio.AsciiMap(net, d, cols, rows))
	}
	if jsonPath != "" {
		nw, err := netio.Export(net, d)
		if err != nil {
			return err
		}
		out := os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := nw.Write(out); err != nil {
			return err
		}
	}
	if dotPath != "" {
		out := os.Stdout
		if dotPath != "-" {
			f, err := os.Create(dotPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if _, err := out.WriteString(netio.DOT(net, d)); err != nil {
			return err
		}
	}
	if svgPath != "" {
		out := os.Stdout
		if svgPath != "-" {
			f, err := os.Create(svgPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if _, err := out.WriteString(netio.SVG(net, d, 800)); err != nil {
			return err
		}
	}
	if !ascii && jsonPath == "" && dotPath == "" && svgPath == "" {
		st := net.Stats()
		fmt.Printf("built %d nodes: %d clusters, backbone %d (height %d), D=%d d=%d Delta=%d delta=%d\n",
			st.Nodes, st.Clusters, st.BackboneSize, st.BackboneHeight,
			st.DegreeG, st.DegreeBT, st.Delta, st.SmallDelta)
		fmt.Println("use -json or -ascii for output")
	}
	return nil
}

// runMetrics runs the scenario the flags describe — through the shared
// scenario runner, recorded and re-verified offline like every CLI run —
// with a metrics registry attached, and renders the snapshot as a
// human-readable table on w.
func runMetrics(w io.Writer, n, side int, seed int64, protocol string, channels int) error {
	s := &scenario.Scenario{Spec: scenario.Spec{
		Name: "metrics", N: n, Side: side, Seed: seed, Protocol: protocol, Channels: channels, Joiner: -1,
	}}
	s, err := scenario.Parse(s.Format())
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	res, err := scenario.Run(s, scenario.RunOptions{Obs: reg, Verify: scenario.FlightCapable(s.Spec.Protocol)})
	if err != nil {
		return err
	}
	if f := res.Failures(); len(f) > 0 {
		return fmt.Errorf("scenario %s: %s", s.Name(), f[0])
	}
	return reg.Snapshot().WriteTable(w)
}
