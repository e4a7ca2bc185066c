package trace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/timeslot"
	"dynsens/internal/trace"
	"dynsens/internal/workload"
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
		t.Fatalf("%v (run `go test ./internal/trace -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestTimelineGolden locks down the human-readable timeline rendering for
// a deterministic ICFF run that exercises every event kind: transmissions,
// receptions, a mid-run node failure, and frame losses.
func TestTimelineGolden(t *testing.T) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(5, 8, 24))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := cnet.BuildFromGraph(d.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := timeslot.New(c, timeslot.ConditionStrict)

	rec := trace.NewRecorder(0)
	var victim = c.Tree().Nodes()[len(c.Tree().Nodes())-1]
	_, err = broadcast.RunICFF(a, c.Root(), broadcast.Options{
		TraceBatch: rec.BatchHook(),
		Failures:   []broadcast.NodeFailure{{Node: victim, Round: 2}},
		LossRate:   0.15,
		LossSeed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}

	var buf bytes.Buffer
	if err := rec.Render(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "timeline.golden", buf.Bytes())
}

// TestTimelineDroppedGolden locks down the truncation footer.
func TestTimelineDroppedGolden(t *testing.T) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(3, 8, 20))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := cnet.BuildFromGraph(d.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := timeslot.New(c, timeslot.ConditionStrict)

	rec := trace.NewRecorder(10)
	if _, err := broadcast.RunICFF(a, c.Root(), broadcast.Options{TraceBatch: rec.BatchHook()}); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() == 0 {
		t.Fatal("limit did not drop anything")
	}
	var buf bytes.Buffer
	if err := rec.Render(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "timeline_dropped.golden", buf.Bytes())
}
