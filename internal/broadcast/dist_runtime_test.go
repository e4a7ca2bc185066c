package broadcast

import (
	"bytes"
	"testing"

	"dynsens/internal/flight"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/radio/rounds"
	"dynsens/internal/timeslot"
)

// TestDistRuntimeByteIdentical is the cross-runtime arm of the determinism
// proof: the same plan under Runtime: dist must produce the same metrics,
// byte-identical trace streams and byte-identical .dsfr recordings as the
// in-process kernel — including with failures, link cuts, loss and skew in
// the mix.
func TestDistRuntimeByteIdentical(t *testing.T) {
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
			name: "icff-loss-failures-skew",
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
			name: "dfo-loss",
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kOpts := tc.opts
			kOpts.Runtime = RuntimeKernel
			wantM, wantTrace, wantFlight := runRecorded(t, tc.build, kOpts, 0)

			dOpts := tc.opts
			dOpts.Runtime = RuntimeDist
			gotM, gotTrace, gotFlight := runRecorded(t, tc.build, dOpts, 0)

			if gotM.String() != wantM.String() {
				t.Fatalf("metrics diverge:\n dist   %s\n kernel %s", gotM, wantM)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Fatalf("trace stream diverges between runtimes")
			}
			if !bytes.Equal(gotFlight, wantFlight) {
				t.Fatalf("flight recording diverges between runtimes (%d vs %d bytes)",
					len(gotFlight), len(wantFlight))
			}
		})
	}
}

// TestDistRuntimeNemesisVerifies runs the loss/partition/churn nemesis
// suite on both runtimes: every recording must pass the offline flight
// verifier — scripted faults leave a verifiable event trail (partition
// drops as losses, crashes as node failures), not silent divergence — and
// the distributed recording must be byte-identical to the kernel's.
func TestDistRuntimeNemesisVerifies(t *testing.T) {
	a := buildAssigned(t, 5, 140, timeslot.ConditionStrict)
	g := a.Net().Graph()
	nodes := g.Nodes()
	side := append([]graph.NodeID(nil), nodes[:len(nodes)/3]...)
	cases := []struct {
		name string
		opts Options
	}{
		{
			name: "loss",
			opts: Options{Config: radio.Config{LossRate: 0.3, LossSeed: 5}},
		},
		{
			name: "partition-heals",
			opts: Options{Config: radio.Config{Partitions: []rounds.Partition{{From: 3, To: 6, Side: side}}}},
		},
		{
			name: "churn-crashes",
			opts: Options{
				Config: radio.Config{
					Failures: []NodeFailure{
						{Node: nodes[len(nodes)/4], Round: 4},
						{Node: nodes[len(nodes)/2], Round: 7},
					},
				},
			},
		},
		{
			name: "all-at-once",
			opts: Options{
				Config: radio.Config{
					LossRate:   0.15,
					LossSeed:   11,
					Partitions: []rounds.Partition{{From: 2, To: 4, Side: side}},
					Failures:   []NodeFailure{{Node: nodes[len(nodes)-2], Round: 5}},
				},
			},
		},
	}
	build := func() (*Plan, *graph.Graph) {
		plan, err := ICFFPlan(a, 0, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan, g
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recordings := make(map[string][]byte)
			for _, rt := range []string{RuntimeKernel, RuntimeDist} {
				opts := tc.opts
				opts.Runtime = rt
				_, _, recording := runRecorded(t, build, opts, 0)
				recordings[rt] = recording
				rec, err := flight.DecodeBytes(recording)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range flight.Verify(rec).Checks {
					if c.Err != nil {
						t.Errorf("%s: flight verifier check %s failed on nemesis recording: %v", rt, c.Name, c.Err)
					}
				}
				if len(opts.Partitions) > 0 && rec.Footer.Losses == 0 {
					t.Errorf("%s: the partition swallowed no frame", rt)
				}
			}
			if !bytes.Equal(recordings[RuntimeKernel], recordings[RuntimeDist]) {
				t.Fatalf("nemesis recordings diverge between runtimes (%d vs %d bytes)",
					len(recordings[RuntimeKernel]), len(recordings[RuntimeDist]))
			}
		})
	}
}
