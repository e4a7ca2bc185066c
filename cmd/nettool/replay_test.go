package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/flight"
	"dynsens/internal/netio"
)

// recordFixture writes a flight recording of one deterministic ICFF run to
// a temp file and returns its path with the network it ran on.
func recordFixture(t *testing.T, n int, seed int64, opts broadcast.Options) (string, *core.Network) {
	t.Helper()
	net, _, err := core.Deploy(8, n, seed, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.dsfr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fw := flight.NewWriter(f)
	fw.WriteHeader(flight.Header{
		Seed: seed, N: n, Side: 8, Channels: opts.Channels,
		Source: net.Root(), Protocol: "ICFF",
		LossRate: opts.LossRate, LossSeed: opts.LossSeed,
	})
	netio.RecordTopology(fw, net)
	opts.Flight = fw
	if _, err := broadcast.RunICFF(net.Slots(), net.Root(), opts); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return path, net
}

func TestReplayCleanRun(t *testing.T) {
	path, _ := recordFixture(t, 40, 3, broadcast.Options{Channels: 1})
	chrome := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	ok, err := runReplay(&sb, path, chrome, true, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !ok {
		t.Fatalf("verifier failed:\n%s", out)
	}
	for _, want := range []string{
		"recording: ICFF n=40", "verifier: PASS", "wrote Chrome trace",
		"rng-scheme: " + flight.RNGSchemeCounter + " (format v2)",
		"trace seq=1", // span view
		"r1",          // timeline rows
	} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("exported Chrome trace is not valid JSON")
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("Chrome trace has no events")
	}
}

// TestReplayWhyMissed is the acceptance check for hop localization: on a
// lossy run, -why-missed for an unreached node must name the first failed
// hop on its delivery path.
func TestReplayWhyMissed(t *testing.T) {
	// High loss with a fixed seed leaves part of the 40-node network
	// unreached; find a node the run missed and ask the replayer why.
	opts := broadcast.Options{Channels: 1, LossRate: 0.85, LossSeed: 4}
	path, net := recordFixture(t, 40, 3, opts)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Footer.Received == rec.Footer.Audience {
		t.Fatalf("lossy run still delivered to all %d nodes; raise the loss rate", rec.Footer.Audience)
	}
	tr := rec.Trace(1)
	if tr == nil {
		t.Fatal("no payload trace")
	}
	holders := tr.Holders()
	missed := -1
	for _, id := range net.Graph().Nodes() {
		if !holders[id] {
			missed = int(id)
			break
		}
	}
	if missed < 0 {
		t.Fatal("every node holds the payload despite Received < Audience")
	}
	var sb strings.Builder
	ok, err := runReplay(&sb, path, "", false, -1, missed)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("verifier failed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "first broken hop") {
		t.Fatalf("-why-missed did not localize a hop:\n%s", sb.String())
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := runReplay(&strings.Builder{}, filepath.Join(t.TempDir(), "nope.dsfr"), "", false, -1, -1); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.dsfr")
	if err := os.WriteFile(bad, []byte("not a recording"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runReplay(&strings.Builder{}, bad, "", false, -1, -1); err == nil {
		t.Fatal("garbage accepted")
	}
	path, _ := recordFixture(t, 20, 3, broadcast.Options{Channels: 1})
	if _, err := runReplay(&strings.Builder{}, path, "", false, 999, -1); err == nil {
		t.Fatal("phantom span seq accepted")
	}
}
