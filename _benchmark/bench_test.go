package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

// digestOf sets workload w up at size n and folds its first ops ops.
func digestOf(t *testing.T, w workloadDef, seed int64, n, ops int, traced bool) string {
	t.Helper()
	count := &counters{}
	var tr *tracer
	if traced {
		tr = newTracer()
		count.kernel = radio.NewPerf()
	}
	r, err := w.setup(env{seed: seed, n: n, count: count}, tr)
	if err != nil {
		t.Fatalf("%s setup: %v", w.name, err)
	}
	d := newDigest()
	for i := 0; i < ops; i++ {
		tr.setOp(i)
		o := r.op(i, tr)
		if o.fail != nil {
			t.Fatalf("%s op %d: %v", w.name, i, o.fail)
		}
		r.fold(d, i, o)
	}
	if f := r.finish(); f != nil {
		t.Fatalf("%s finish: %v", w.name, f)
	}
	return d.hex()
}

// TestDigestDeterminism: the same seed gives the same digest, traced or
// not, and a different seed gives a different one.
func TestDigestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := 150
			a := digestOf(t, w, 1, n, 20, false)
			if b := digestOf(t, w, 1, n, 20, true); a != b {
				t.Errorf("seed 1: untraced %s, traced %s", a, b)
			}
			if c := digestOf(t, w, 2, n, 20, false); a == c {
				t.Errorf("seeds 1 and 2 share digest %s", a)
			}
		})
	}
}

// TestChurnCycleReturnsToBase replays the churn cycle twice through the
// facade: each pass ends on the base deployment's graph, valid throughout.
func TestChurnCycleReturnsToBase(t *testing.T) {
	cfg := workload.PaperConfig(3, side(120), 120)
	base, joins, err := workload.ChurnTrace(cfg, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := base.Graph()
	net, err := core.Build(g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	movable := smallSubtrees(net)
	small := map[graph.NodeID]bool{}
	for _, v := range movable {
		small[v] = true
	}
	cycle, err := churnCycle(cfg, base.Pos, joins, movable, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for _, ev := range cycle {
		if ev.Kind == workload.Leave {
			leaves++
			if int(ev.Node) < len(base.Pos) && !small[ev.Node] {
				t.Errorf("base node %d with a large subtree departs", ev.Node)
			}
		}
	}
	if len(cycle)%2 != 0 || 2*leaves != len(cycle) {
		t.Fatalf("cycle of %d events has %d leaves", len(cycle), leaves)
	}
	for pass := 0; pass < 2; pass++ {
		for i, ev := range cycle {
			if ev.Kind == workload.Join {
				err = net.Join(ev.Node, ev.neighbors)
			} else {
				err = net.Leave(ev.Node)
			}
			if err != nil {
				t.Fatalf("pass %d event %d (%v %d): %v", pass, i, ev.Kind, ev.Node, err)
			}
		}
		if err := net.Verify(); err != nil {
			t.Fatal(err)
		}
		if !net.Graph().Equal(g) {
			t.Fatalf("pass %d ends on %d nodes %d edges, base has %d and %d", pass,
				net.Graph().NumNodes(), net.Graph().NumEdges(), g.NumNodes(), g.NumEdges())
		}
	}
}

// TestMetricsMatchBenchmarkJSON: a run prints exactly the metrics, with
// the units, that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		res, err := bench(workloads[1], config{workload: "broadcast", seed: 1, seconds: 0.01, trace: traced, n: 120})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", traced, len(res.metrics), len(want))
		}
		for i := range want {
			if i < len(res.metrics) && (res.metrics[i].name != want[i].Name || res.metrics[i].unit != want[i].Unit) {
				t.Errorf("traced=%v metric %d: %s %s, declared %s %s", traced, i,
					res.metrics[i].name, res.metrics[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
}
