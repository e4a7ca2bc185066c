package broadcast

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dynsens/internal/flight"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/timeslot"
	"dynsens/internal/trace"
)

// runRecorded executes one protocol run at the given engine worker count,
// capturing both the serialized trace stream and the complete .dsfr flight
// recording. The plan is rebuilt per call so program state never leaks
// between runs.
func runRecorded(t *testing.T, build func() (*Plan, *graph.Graph), opts Options, workers int) (Metrics, []byte, []byte) {
	t.Helper()
	plan, g := build()
	var traceBuf, flightBuf bytes.Buffer
	fw := flight.NewWriter(&flightBuf)
	fw.WriteHeader(flight.Header{Seed: 1, N: g.NumNodes(), Protocol: plan.Protocol,
		LossRate: opts.LossRate, LossSeed: opts.LossSeed})
	opts.Workers = workers
	opts.TraceBatch = func(evs []radio.Event) {
		for _, ev := range evs {
			fmt.Fprintf(&traceBuf, "%+v\n", ev)
		}
	}
	opts.Flight = fw
	m, err := plan.Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return m, traceBuf.Bytes(), flightBuf.Bytes()
}

// TestRunByteIdenticalAcrossWorkers is the protocol-level arm of the
// determinism proof: a full ICFF, CFF and DFO run — with failures, loss
// and skew in the mix — must produce byte-identical trace streams and
// byte-identical .dsfr flight recordings at every engine worker count.
func TestRunByteIdenticalAcrossWorkers(t *testing.T) {
	a := buildAssigned(t, 5, 140, timeslot.ConditionStrict)
	g := a.Net().Graph()
	nodes := g.Nodes()
	cases := []struct {
		name  string
		build func() (*Plan, *graph.Graph)
		opts  Options
	}{
		{
			name: "icff",
			build: func() (*Plan, *graph.Graph) {
				plan, err := ICFFPlan(a, 0, 1, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return plan, g
			},
			opts: Options{},
		},
		{
			name: "icff-loss-failures",
			build: func() (*Plan, *graph.Graph) {
				plan, err := ICFFPlan(a, 0, 2, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return plan, g
			},
			opts: Options{
				Config: radio.Config{
					LossRate:     0.25,
					LossSeed:     99,
					Failures:     []NodeFailure{{Node: nodes[len(nodes)/2], Round: 3}, {Node: nodes[len(nodes)/3], Round: 5}},
					LinkFailures: []LinkFailure{{A: nodes[1], B: nodes[2], Round: 2}},
					Skew:         map[graph.NodeID]int{nodes[4]: 1, nodes[7]: -1},
				},
				Channels: 2,
			},
		},
		{
			name: "cff",
			build: func() (*Plan, *graph.Graph) {
				plan, err := CFFPlan(a, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				return plan, g
			},
			opts: Options{},
		},
		{
			name: "dfo",
			build: func() (*Plan, *graph.Graph) {
				plan, err := DFOPlan(a.Net(), 0)
				if err != nil {
					t.Fatal(err)
				}
				return plan, g
			},
			opts: Options{Config: radio.Config{LossRate: 0.1, LossSeed: 7}},
		},
	}
	workerSet := []int{2, 3, 8, runtime.NumCPU()}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantM, wantTrace, wantFlight := runRecorded(t, tc.build, tc.opts, 1)
			for _, w := range workerSet {
				gotM, gotTrace, gotFlight := runRecorded(t, tc.build, tc.opts, w)
				if gotM.String() != wantM.String() {
					t.Fatalf("workers=%d metrics diverge:\n got %s\nwant %s", w, gotM, wantM)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Fatalf("workers=%d trace stream diverges", w)
				}
				if !bytes.Equal(gotFlight, wantFlight) {
					t.Fatalf("workers=%d flight recording diverges (%d vs %d bytes)",
						w, len(gotFlight), len(wantFlight))
				}
			}
		})
	}
}

// TestRunByteIdenticalRingRecorder repeats the byte-identity check with a
// bounded ring flight writer and a batch-hooked trace recorder in the
// loop: eviction order and the batched sink path must themselves be
// deterministic across worker counts.
func TestRunByteIdenticalRingRecorder(t *testing.T) {
	a := buildAssigned(t, 5, 140, timeslot.ConditionStrict)
	g := a.Net().Graph()
	opts := Options{Config: radio.Config{LossRate: 0.2, LossSeed: 17}}
	run := func(workers int) ([]byte, []radio.Event, int) {
		plan, err := ICFFPlan(a, 0, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var flightBuf bytes.Buffer
		fw := flight.NewRingWriter(&flightBuf, 24)
		fw.WriteHeader(flight.Header{Seed: 1, N: g.NumNodes(), Protocol: plan.Protocol,
			LossRate: opts.LossRate, LossSeed: opts.LossSeed})
		rec := trace.NewRecorder(40)
		o := opts
		o.Workers = workers
		o.TraceBatch = rec.BatchHook()
		o.Flight = fw
		if _, err := plan.Run(g, o); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		evs := make([]radio.Event, len(rec.Events()))
		copy(evs, rec.Events())
		return flightBuf.Bytes(), evs, rec.Dropped()
	}
	wantFlight, wantEvs, wantDropped := run(1)
	if wantDropped == 0 {
		t.Fatal("recorder limit never hit; ring/drop paths not exercised")
	}
	for _, w := range []int{2, 3, 8, runtime.NumCPU()} {
		gotFlight, gotEvs, gotDropped := run(w)
		if !bytes.Equal(gotFlight, wantFlight) {
			t.Fatalf("workers=%d ring recording diverges", w)
		}
		if !reflect.DeepEqual(gotEvs, wantEvs) || gotDropped != wantDropped {
			t.Fatalf("workers=%d recorder diverges (%d events, %d dropped vs %d, %d)",
				w, len(gotEvs), gotDropped, len(wantEvs), wantDropped)
		}
	}
}
