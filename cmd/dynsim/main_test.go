package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/flight"
	"dynsens/internal/obs"
)

// cfg returns the shared small scenario, customizable per test.
func cfg(proto string) runConfig {
	return runConfig{N: 60, Side: 8, Seed: 1, Protocol: proto, Channels: 1, GroupFrac: 0.3}
}

func TestRunAllProtocols(t *testing.T) {
	for _, proto := range []string{"icff", "cff", "dfo", "multicast", "gather"} {
		if err := run(cfg(proto)); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

func TestRunWithFailuresAndChannels(t *testing.T) {
	c := cfg("icff")
	c.Seed, c.Channels, c.FailFrac, c.GroupFrac = 2, 4, 0.1, 0
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	c.Protocol, c.Channels = "dfo", 1
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerboseTrace(t *testing.T) {
	c := cfg("icff")
	c.N, c.Seed, c.GroupFrac, c.Verbose = 20, 3, 0, true
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	c := cfg("nope")
	c.N = 20
	if err := run(c); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunNonRootSource(t *testing.T) {
	c := cfg("icff")
	c.N, c.Source, c.GroupFrac = 40, 17, 0
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

// parseProm reads a Prometheus text file into series-id -> value, skipping
// comments and histogram sample lines.
func parseProm(t *testing.T, path string) map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsReconcile is the acceptance check: the -metrics Prometheus
// dump of a run must agree with what the library reports for the same
// deployment and options.
func TestMetricsReconcile(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "m.prom")
	eventsPath := filepath.Join(dir, "events.jsonl")

	c := cfg("icff")
	c.MetricsPath, c.EventsPath = promPath, eventsPath
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	got := parseProm(t, promPath)

	// Re-run the identical scenario through the library.
	net, _, err := core.Deploy(c.Side, c.N, c.Seed, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m, err := broadcast.RunICFF(net.Slots(), net.Root(), broadcast.Options{Channels: c.Channels, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	check := func(series string, want float64) {
		t.Helper()
		v, ok := got[series]
		if !ok {
			t.Errorf("series %s missing from %s", series, promPath)
			return
		}
		if v != want {
			t.Errorf("%s = %v, want %v", series, v, want)
		}
	}
	lbl := `{protocol="ICFF"}`
	check(obs.MetricRadioTransmissions+lbl, float64(m.Transmissions))
	check(obs.MetricRadioCollisions+lbl, float64(m.Collisions))
	check(broadcast.MetricBroadcastRuns+lbl, 1)
	check(broadcast.MetricBroadcastDelivered+lbl, float64(m.Received))
	check(broadcast.MetricBroadcastAudience+lbl, float64(m.Audience))

	// The dump and the re-run used independent registries; their full
	// radio counter sets must also agree with each other.
	snap := reg.Snapshot()
	for _, name := range []string{obs.MetricRadioDeliveries, obs.MetricRadioLosses, obs.MetricRadioNodeFailures} {
		want, ok := snap.CounterValue(name, obs.L("protocol", "ICFF"))
		if !ok {
			t.Fatalf("library registry missing %s", name)
		}
		check(name+lbl, float64(want))
	}

	// The JSONL sink must have captured events.
	ev, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(ev)), "\n") + 1
	if lines < m.Transmissions {
		t.Errorf("event sink has %d lines, want >= %d transmissions", lines, m.Transmissions)
	}
	for _, l := range strings.SplitN(string(ev), "\n", 2)[:1] {
		if !strings.HasPrefix(l, `{"eseq":`) {
			t.Errorf("first event line not JSONL: %q", l)
		}
	}
}

// TestRecordIsDeterministic is the exact-replay acceptance check: two runs
// of the same scenario must produce byte-identical flight recordings (same
// per-round event sequence, same sequence numbers), and the recording must
// decode and pass the offline verifier.
func TestRecordIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.dsfr"), filepath.Join(dir, "b.dsfr")

	c := cfg("icff")
	c.FailFrac, c.Seed = 0.2, 2
	c.RecordPath = a
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	c.RecordPath = b
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	ba, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("recordings of identical runs differ (%d vs %d bytes)", len(ba), len(bb))
	}

	rec, err := flight.DecodeBytes(ba)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) == 0 || len(rec.Nodes) != c.N || rec.Footer == nil {
		t.Fatalf("recording incomplete: %d events, %d nodes, footer %v",
			len(rec.Events), len(rec.Nodes), rec.Footer)
	}
	if rep := flight.Verify(rec); !rep.Passed() {
		var sb strings.Builder
		_ = rep.Write(&sb)
		t.Fatalf("verifier failed on dynsim recording:\n%s", sb.String())
	}
}

// TestRecordRing covers the bounded-ring flag and the protocols that reach
// the recorder through different planners.
func TestRecordRing(t *testing.T) {
	for _, proto := range []string{"icff", "cff", "dfo", "multicast"} {
		c := cfg(proto)
		c.RecordPath = filepath.Join(t.TempDir(), "r.dsfr")
		c.RecordRing = 10
		if err := run(c); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		raw, err := os.ReadFile(c.RecordPath)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := flight.DecodeBytes(raw)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if rec.Dropped() == 0 || len(rec.Events) != 10 {
			t.Fatalf("%s: ring kept %d events with %d dropped", proto, len(rec.Events), rec.Dropped())
		}
		if rep := flight.Verify(rec); !rep.Passed() {
			t.Fatalf("%s: verifier failed on ring recording", proto)
		}
	}
}

func TestRecordRejectsGather(t *testing.T) {
	c := cfg("gather")
	c.RecordPath = filepath.Join(t.TempDir(), "g.dsfr")
	if err := run(c); err == nil {
		t.Fatal("gather accepted a -record path")
	}
}

func TestMetricsJSONAndStdout(t *testing.T) {
	c := cfg("dfo")
	c.MetricsPath = filepath.Join(t.TempDir(), "m.json")
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(c.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(b)), "{") {
		t.Errorf("JSON dump does not look like JSON: %q", b[:min(len(b), 40)])
	}
	c.MetricsPath = "-"
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
