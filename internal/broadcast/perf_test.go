package broadcast

import (
	"bytes"
	"testing"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/timeslot"
)

// TestPerfDoesNotPerturb is the hard constraint of the perf introspection
// layer, enforced end to end: attaching a radio.Perf collector must not
// change anything the simulation produces. A full ICFF run — with loss,
// failures, link cuts and skew in the mix — must yield byte-identical
// trace streams, byte-identical .dsfr flight recordings and identical
// metrics with perf enabled and disabled, on both runtimes, at workers 1
// (inline path) and 4 (worker-pool path with pprof labels; on the
// distributed runtime, four shards driving their own barriers).
func TestPerfDoesNotPerturb(t *testing.T) {
	a := buildAssigned(t, 5, 140, timeslot.ConditionStrict)
	g := a.Net().Graph()
	nodes := g.Nodes()
	build := func() (*Plan, *graph.Graph) {
		plan, err := ICFFPlan(a, 0, 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan, g
	}
	base := Options{
		Channels: 2,
		LossRate: 0.25, LossSeed: 99,
		Failures:     []NodeFailure{{Node: nodes[len(nodes)/2], Round: 3}, {Node: nodes[len(nodes)/3], Round: 5}},
		LinkFailures: []LinkFailure{{A: nodes[1], B: nodes[2], Round: 2}},
		Skew:         map[graph.NodeID]int{nodes[4]: 1, nodes[7]: -1},
	}
	for _, rt := range []string{RuntimeKernel, RuntimeDist} {
		for _, workers := range []int{1, 4} {
			off := base
			off.Runtime = rt
			wantM, wantTrace, wantFlight := runRecorded(t, build, off, workers)

			on := off
			perf := radio.NewPerf()
			on.Perf = perf
			gotM, gotTrace, gotFlight := runRecorded(t, build, on, workers)

			if gotM.String() != wantM.String() {
				t.Fatalf("%s workers=%d: perf on/off metrics diverge:\n got %s\nwant %s", rt, workers, gotM, wantM)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Fatalf("%s workers=%d: perf on/off trace streams diverge", rt, workers)
			}
			if !bytes.Equal(gotFlight, wantFlight) {
				t.Fatalf("%s workers=%d: perf on/off flight recordings diverge (%d vs %d bytes)",
					rt, workers, len(gotFlight), len(wantFlight))
			}

			// The collector must actually have observed the run it rode along.
			snap := perf.Snapshot()
			if snap.Runs != 1 {
				t.Fatalf("%s workers=%d: perf runs = %d, want 1", rt, workers, snap.Runs)
			}
			if snap.Rounds != int64(gotM.Rounds) || snap.Events <= 0 || snap.WallNs <= 0 {
				t.Fatalf("%s workers=%d: perf snapshot %+v does not match the run's %d rounds", rt, workers, snap, gotM.Rounds)
			}
			if len(snap.ShardBusyNs) != workers {
				t.Fatalf("%s workers=%d: %d shard accumulators", rt, workers, len(snap.ShardBusyNs))
			}
		}
	}
}
