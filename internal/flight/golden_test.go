package flight_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/flight"
	"dynsens/internal/radio"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// compareGolden checks got against testdata/<name>, rewriting the file
// under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/flight -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestChromeTraceGolden locks down the Chrome trace-event export for a
// deterministic run that exercises every event kind: transmissions,
// receptions, a mid-run node death, and frame losses. The output must also
// be valid JSON, since its whole point is to load in Perfetto.
func TestChromeTraceGolden(t *testing.T) {
	net := buildNet(t, 24, 8, 5)
	nodes := net.CNet().Tree().Nodes()
	victim := nodes[len(nodes)-1]
	raw, _ := record(t, net, 5, 24, 8, broadcast.Options{
		Config: radio.Config{
			Failures: []broadcast.NodeFailure{{Node: victim, Round: 2}},
			LossRate: 0.15,
			LossSeed: 7,
		},
		Channels: 1,
	}, 0)
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flight.WriteChromeTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome trace is not valid JSON")
	}
	compareGolden(t, "chrome.golden", buf.Bytes())
}
