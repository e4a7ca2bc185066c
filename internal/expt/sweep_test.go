package expt

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dynsens/internal/flight"
	"dynsens/internal/obs"
	"dynsens/internal/radio"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden with current output")

// TestRunAllGolden pins the whole quick report byte for byte, at one sweep
// worker and at four: parallel points must aggregate exactly like serial
// ones.
func TestRunAllGolden(t *testing.T) {
	path := filepath.Join("testdata", "quick.golden")
	for _, workers := range []int{1, 4} {
		p := Quick()
		p.Workers = workers
		var got bytes.Buffer
		if err := RunAll(p, &got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/expt -update` to create it)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("workers=%d: report drifted from %s.\n--- got ---\n%s", workers, path, got.Bytes())
		}
	}
}

// TestEveryExperimentSweeps runs the whole catalogue at Quick() with a
// metrics registry, a perf collector and a flight factory: every
// experiment counts one point per (row, seed), every experiment that runs
// a broadcast or gather engine folds its runs into the collector, and the
// ICFF run of each Fig. 8, Fig. 9, lifetime and areas point is recorded
// under its own (id, side, n, seed).
func TestEveryExperimentSweeps(t *testing.T) {
	rows := map[string]int{
		"8": 2, "9": 2, "10": 2, "11": 2, "bounds": 2, "channels": 4,
		"multicast": 5, "robust": 5, "repair": 3, "loss": 4, "mobility": 3,
		"reconfig": 2, "areas": 3, "lifetime": 2, "failover": 1, "skew": 3,
		"gather": 2, "flooding": 1, "discovery": 2, "bootstrap": 2,
		"joinproto": 2, "construction": 2, "ablation": 2, "policy": 1,
		"slotcond": 2,
	}
	engines := map[string]bool{
		"8": true, "9": true, "channels": true, "multicast": true,
		"robust": true, "repair": true, "loss": true, "mobility": true,
		"areas": true, "lifetime": true, "failover": true, "skew": true,
		"gather": true, "flooding": true, "ablation": true, "policy": true,
		"slotcond": true,
	}
	var mu sync.Mutex
	recorded := map[string]int{}
	for _, e := range Catalog() {
		t.Run(e.ID, func(t *testing.T) {
			reg := obs.NewRegistry()
			perf := radio.NewPerf()
			p := Quick()
			p.Workers = 2
			p.Obs = reg
			p.Perf = perf
			p.Flight = func(id string, side, n int, seed int64) (*flight.Writer, error) {
				mu.Lock()
				defer mu.Unlock()
				recorded[fmt.Sprintf("%s-side%d-n%d-s%d", id, side, n, seed)]++
				return flight.NewWriter(&bytes.Buffer{}), nil
			}
			if _, err := e.Run(p); err != nil {
				t.Fatal(err)
			}
			want, ok := rows[e.ID]
			if !ok {
				t.Fatalf("no expected row count for experiment %s", e.ID)
			}
			if got, _ := reg.Snapshot().CounterValue(MetricExptPoints); got != int64(want*p.Seeds) {
				t.Errorf("%s = %d, want %d rows x %d seeds", MetricExptPoints, got, want, p.Seeds)
			}
			if runs := perf.Snapshot().Runs; engines[e.ID] && runs == 0 {
				t.Errorf("perf saw no engine runs")
			}
		})
	}
	if len(recorded) != 18 {
		t.Errorf("recorded %d distinct runs, want 18: %v", len(recorded), recorded)
	}
	for name, calls := range recorded {
		if calls != 1 {
			t.Errorf("%s recorded %d times", name, calls)
		}
	}
}

// TestFlightErrorFailsRun checks a flight factory error fails the sweep
// instead of silently skipping the point's recording.
func TestFlightErrorFailsRun(t *testing.T) {
	errFull := errors.New("disk full")
	p := Quick()
	p.Flight = func(string, int, int, int64) (*flight.Writer, error) {
		return nil, errFull
	}
	if _, err := Fig8(p); !errors.Is(err, errFull) {
		t.Fatalf("Fig8 error = %v, want the factory's", err)
	}
}
