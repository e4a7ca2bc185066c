package radio

import "testing"

// TestPerfSnapshotMath pins the derived-metric arithmetic on synthetic
// snapshots, where the expected values can be computed by hand.
func TestPerfSnapshotMath(t *testing.T) {
	cases := []struct {
		name          string
		snap          PerfSnapshot
		wantImbalance float64
		wantEvPerRnd  float64
	}{
		{
			name:          "empty",
			snap:          PerfSnapshot{},
			wantImbalance: 1, wantEvPerRnd: 0,
		},
		{
			name:          "single shard is balanced by definition",
			snap:          PerfSnapshot{Rounds: 4, Events: 10, ShardBusyNs: []int64{900}},
			wantImbalance: 1, wantEvPerRnd: 2.5,
		},
		{
			name:          "all idle shards report balanced",
			snap:          PerfSnapshot{Rounds: 1, ShardBusyNs: []int64{0, 0, 0}},
			wantImbalance: 1, wantEvPerRnd: 0,
		},
		{
			name: "skewed pair: max 3 over mean 2",
			snap: PerfSnapshot{Rounds: 2, Events: 7, ShardBusyNs: []int64{3, 1}},
			// max=3, mean=(3+1)/2=2 -> 1.5
			wantImbalance: 1.5, wantEvPerRnd: 3.5,
		},
		{
			name:          "perfectly balanced quad",
			snap:          PerfSnapshot{Rounds: 5, Events: 5, ShardBusyNs: []int64{10, 10, 10, 10}},
			wantImbalance: 1, wantEvPerRnd: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.snap.Imbalance(); got != tc.wantImbalance {
				t.Errorf("Imbalance() = %v, want %v", got, tc.wantImbalance)
			}
			if got := tc.snap.EventsPerRound(); got != tc.wantEvPerRnd {
				t.Errorf("EventsPerRound() = %v, want %v", got, tc.wantEvPerRnd)
			}
		})
	}
}

// TestPerfSnapshotPhaseNs pins the name-indexed phase lookup, including the
// unknown-name zero.
func TestPerfSnapshotPhaseNs(t *testing.T) {
	s := PerfSnapshot{Phases: []PhaseTime{
		{Name: "act", Ns: 100},
		{Name: "resolve", Ns: 200},
		{Name: "barrier-wait", Ns: 7},
	}}
	if got := s.PhaseNs("resolve"); got != 200 {
		t.Errorf("PhaseNs(resolve) = %d, want 200", got)
	}
	if got := s.PhaseNs("barrier-wait"); got != 7 {
		t.Errorf("PhaseNs(barrier-wait) = %d, want 7", got)
	}
	if got := s.PhaseNs("no-such-phase"); got != 0 {
		t.Errorf("PhaseNs(no-such-phase) = %d, want 0", got)
	}
}

// TestPerfAccumulatesAcrossRuns shares one collector between a single-shard
// run (inline path) and a four-shard run (worker-pool path) and checks the
// folded totals: runs count up, the shard axis widens to the largest worker
// count seen, and every phase timer is non-negative with the snapshot
// exposing all five phases in kernel order.
func TestPerfAccumulatesAcrossRuns(t *testing.T) {
	s := scenario{seed: 3, n: 25, extraEdge: 30, horizon: 20, rounds: 20}
	p := NewPerf()

	eng := s.build(t, Config{Workers: 1, Perf: p})
	res1 := eng.Run(s.rounds)

	snap := p.Snapshot()
	if snap.Runs != 1 {
		t.Fatalf("after first run: Runs = %d, want 1", snap.Runs)
	}
	if snap.Rounds != int64(res1.Rounds) {
		t.Fatalf("after first run: Rounds = %d, want %d", snap.Rounds, res1.Rounds)
	}
	if snap.Events <= 0 || snap.WallNs <= 0 {
		t.Fatalf("after first run: empty snapshot: %+v", snap)
	}
	if len(snap.ShardBusyNs) != 1 {
		t.Fatalf("after first run: %d shard slots, want 1", len(snap.ShardBusyNs))
	}

	eng = s.build(t, Config{Workers: 4, Perf: p})
	res2 := eng.Run(s.rounds)

	snap = p.Snapshot()
	if snap.Runs != 2 {
		t.Fatalf("after second run: Runs = %d, want 2", snap.Runs)
	}
	if want := int64(res1.Rounds + res2.Rounds); snap.Rounds != want {
		t.Fatalf("after second run: Rounds = %d, want %d", snap.Rounds, want)
	}
	if len(snap.ShardBusyNs) != 4 {
		t.Fatalf("after second run: %d shard slots, want 4 (max worker count folded)", len(snap.ShardBusyNs))
	}
	wantPhases := []string{"act", "resolve", "deliver", "seq-stitch", "barrier-wait"}
	if len(snap.Phases) != len(wantPhases) {
		t.Fatalf("snapshot has %d phases, want %d", len(snap.Phases), len(wantPhases))
	}
	for i, name := range wantPhases {
		if snap.Phases[i].Name != name {
			t.Errorf("phase %d = %q, want %q", i, snap.Phases[i].Name, name)
		}
		if snap.Phases[i].Ns < 0 {
			t.Errorf("phase %q accumulated negative time %d", name, snap.Phases[i].Ns)
		}
	}
	if imb := snap.Imbalance(); imb < 1 {
		t.Errorf("Imbalance() = %v, want >= 1", imb)
	}
}

// TestPerfClockDisabled checks the off-path contract: a disabled clock
// never touches its accumulator, so uninstrumented runs take no clock
// reads.
func TestPerfClockDisabled(t *testing.T) {
	var acc int64
	clk := perfClock{on: false}
	clk.start()
	clk.lap(&acc)
	clk.lap(&acc)
	if acc != 0 {
		t.Fatalf("disabled perfClock accumulated %d ns", acc)
	}
}
