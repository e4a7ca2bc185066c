package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dynsens/internal/flight"
	"dynsens/internal/obs"
)

// TestRunScenarioExitCodes drives dynsim's -scenario path directly: a
// passing file succeeds, a violated assertion fails (exit 1), and -record
// still writes the recording.
func TestRunScenarioExitCodes(t *testing.T) {
	dir := t.TempDir()
	pass := filepath.Join(dir, "pass.dsn")
	if err := os.WriteFile(pass, []byte(`-- spec --
name = dynsim-pass
n = 30
side = 8
seed = 1
-- assert --
completed
rounds <= theorem1
`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(dir, "run.dsfr")
	if err := run(runConfig{Scenario: pass, RecordPath: rec}); err != nil {
		t.Fatalf("passing scenario failed: %v", err)
	}
	if fi, err := os.Stat(rec); err != nil || fi.Size() == 0 {
		t.Fatalf("recording not written: %v", err)
	}

	fail := filepath.Join(dir, "fail.dsn")
	if err := os.WriteFile(fail, []byte(`-- spec --
name = dynsim-fail
n = 30
side = 8
seed = 1
-- assert --
rounds <= 1
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{Scenario: fail}); err == nil {
		t.Fatal("failing scenario succeeded, want an error (exit 1)")
	}
	if err := run(runConfig{Scenario: filepath.Join(dir, "missing.dsn")}); err == nil {
		t.Fatal("missing file succeeded, want an error (exit 1)")
	}
}

// writeDSN writes a scenario file into dir and returns its path.
func writeDSN(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readFile returns a file's bytes, failing the test if it is missing.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScenarioModeWritesEverySink: -metrics, -events and -record-ring
// apply to a -scenario run exactly as to a flag run.
func TestScenarioModeWritesEverySink(t *testing.T) {
	dir := t.TempDir()
	c := runConfig{
		Scenario:    writeDSN(t, dir, "s.dsn", "-- spec --\nn = 60\nside = 8\nseed = 1\n"),
		MetricsPath: filepath.Join(dir, "m.prom"), EventsPath: filepath.Join(dir, "e.jsonl"),
		RecordPath: filepath.Join(dir, "r.dsfr"), RecordRing: 10,
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	series := obs.MetricRadioTransmissions + `{protocol="ICFF"}`
	if v, ok := parseProm(t, c.MetricsPath)[series]; !ok || v == 0 {
		t.Errorf("metrics dump has %s = %v (present %v), want > 0", series, v, ok)
	}
	if len(bytes.TrimSpace(readFile(t, c.EventsPath))) == 0 {
		t.Error("events file is empty")
	}
	rec, err := flight.DecodeBytes(readFile(t, c.RecordPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 10 || rec.Dropped() == 0 {
		t.Errorf("ring recording kept %d events with %d dropped, want 10 with drops", len(rec.Events), rec.Dropped())
	}
}

// TestGatherEmitsEvents: the gather engine's events reach -events.
func TestGatherEmitsEvents(t *testing.T) {
	c := cfg("gather")
	c.EventsPath = filepath.Join(t.TempDir(), "g.jsonl")
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(readFile(t, c.EventsPath), []byte("\n")); n == 0 {
		t.Fatal("gather run wrote 0 events")
	}
}

// TestFlagsMatchScenarioFile: a flag run and the equivalent .dsn file run
// the same simulation, so their recording, JSONL events and Prometheus
// dump are byte-identical.
func TestFlagsMatchScenarioFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  runConfig
		dsn  string
	}{
		{
			name: "icff-failfrac",
			cfg:  runConfig{N: 100, Side: 10, Seed: 4, Protocol: "icff", Channels: 1, FailFrac: 0.1, GroupFrac: 0.2},
			dsn:  "-- spec --\nn = 100\nside = 10\nseed = 4\n-- script --\nfailfrac 0.1\n",
		},
		{
			name: "multicast-default-groupfrac",
			cfg:  runConfig{N: 80, Side: 8, Seed: 3, Protocol: "multicast", Channels: 2, Source: 5, GroupFrac: 0.2},
			dsn:  "-- spec --\nn = 80\nside = 8\nseed = 3\nprotocol = multicast\nchannels = 2\nsource = 5\ngroup-frac = 0.2\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outputs := func(c runConfig, dir string) [3][]byte {
				c.RecordPath = filepath.Join(dir, "r.dsfr")
				c.EventsPath = filepath.Join(dir, "e.jsonl")
				c.MetricsPath = filepath.Join(dir, "m.prom")
				if err := run(c); err != nil {
					t.Fatal(err)
				}
				return [3][]byte{readFile(t, c.RecordPath), readFile(t, c.EventsPath), readFile(t, c.MetricsPath)}
			}
			flagDir, fileDir := t.TempDir(), t.TempDir()
			flags := outputs(tc.cfg, flagDir)
			file := outputs(runConfig{Scenario: writeDSN(t, fileDir, "s.dsn", tc.dsn)}, fileDir)
			for i, what := range []string{"recording", "events", "metrics"} {
				if len(flags[i]) == 0 {
					t.Errorf("%s is empty", what)
				}
				if !bytes.Equal(flags[i], file[i]) {
					t.Errorf("%s differs between flag mode (%d bytes) and scenario mode (%d bytes)", what, len(flags[i]), len(file[i]))
				}
			}
		})
	}
}

// TestGroupFracZeroRejected: a spec cannot say "no members" (group-frac =
// 0 reads as the default), so the flag fails instead of being remapped.
func TestGroupFracZeroRejected(t *testing.T) {
	c := cfg("multicast")
	c.GroupFrac = 0
	if err := run(c); err == nil {
		t.Fatal("-groupfrac 0 accepted")
	}
}
