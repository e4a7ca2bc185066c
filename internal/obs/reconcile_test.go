package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/obs"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

// build constructs an assigned paper-style network (external package: this
// test reconciles obs against the protocol stack, which internal obs tests
// cannot import without a cycle).
func build(t *testing.T, seed int64, n int) *timeslot.Assignment {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := cnet.BuildFromGraph(d.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return timeslot.New(c, timeslot.ConditionStrict)
}

// TestCollectorReconcilesWithMetrics runs one lossy ICFF broadcast with the
// registry attached and checks every radio counter against the engine
// totals the run itself reported.
func TestCollectorReconcilesWithMetrics(t *testing.T) {
	a := build(t, 11, 80)
	reg := obs.NewRegistry()
	m, err := broadcast.RunICFF(a, a.Net().Root(), broadcast.Options{
		Obs:      reg,
		LossRate: 0.1,
		LossSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	lbl := obs.L("protocol", "ICFF")

	mustCounter := func(name string) int64 {
		t.Helper()
		v, ok := snap.CounterValue(name, lbl)
		if !ok {
			t.Fatalf("counter %s missing", name)
		}
		return v
	}
	if got := mustCounter(obs.MetricRadioTransmissions); got != int64(m.Transmissions) {
		t.Errorf("transmissions: registry %d vs metrics %d", got, m.Transmissions)
	}
	if got := mustCounter(obs.MetricRadioCollisions); got != int64(m.Collisions) {
		t.Errorf("collisions: registry %d vs metrics %d", got, m.Collisions)
	}
	// Deliveries and awake totals reconcile against the per-node maps.
	var listens int64
	for _, id := range a.Net().Tree().Nodes() {
		listens += int64(m.Listens[id])
	}
	hp, ok := snap.HistogramPoint(obs.MetricRadioAwakeRounds, lbl)
	if !ok {
		t.Fatal("awake histogram missing")
	}
	if hp.Count != int64(len(m.Awake)) {
		t.Errorf("awake observations %d vs %d engine nodes", hp.Count, len(m.Awake))
	}
	var awakeSum int64
	for _, v := range m.Awake {
		awakeSum += int64(v)
	}
	if int64(hp.Sum) != awakeSum {
		t.Errorf("awake sum %v vs %d", hp.Sum, awakeSum)
	}
	// Broadcast-level series.
	if got, _ := snap.CounterValue(broadcast.MetricBroadcastDelivered, lbl); got != int64(m.Received) {
		t.Errorf("delivered: registry %d vs metrics %d", got, m.Received)
	}
	if got, _ := snap.CounterValue(broadcast.MetricBroadcastAudience, lbl); got != int64(m.Audience) {
		t.Errorf("audience: registry %d vs metrics %d", got, m.Audience)
	}
}

// TestEventSinkJSONLMatchesCounters streams one run into the sink and
// cross-checks the JSONL against the same run's registry counters.
func TestEventSinkJSONLMatchesCounters(t *testing.T) {
	a := build(t, 4, 50)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	sink := obs.NewEventSink(&buf)
	_, err := broadcast.RunICFF(a, a.Net().Root(), broadcast.Options{
		Obs:        reg,
		TraceBatch: sink.BatchHook(),
		LossRate:   0.05,
		LossSeed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	kinds := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec obs.EventRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kinds[rec.Kind]++
	}
	if int64(sink.Events()) != int64(strings.Count(buf.String(), "\n")) {
		t.Errorf("sink reports %d events, file has %d lines", sink.Events(), strings.Count(buf.String(), "\n"))
	}

	snap := reg.Snapshot()
	lbl := obs.L("protocol", "ICFF")
	for name, kind := range map[string]string{
		obs.MetricRadioTransmissions: "tx",
		obs.MetricRadioDeliveries:    "rx",
		obs.MetricRadioCollisions:    "collision",
		obs.MetricRadioLosses:        "loss",
	} {
		want, ok := snap.CounterValue(name, lbl)
		if !ok {
			t.Fatalf("counter %s missing", name)
		}
		if kinds[kind] != want {
			t.Errorf("%s: sink saw %d %q events, registry %d", name, kinds[kind], kind, want)
		}
	}
}
