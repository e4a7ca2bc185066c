package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynsens/internal/broadcast"
)

var update = flag.Bool("update", false, "refresh golden metrics/timeline sections in place")

// corpusFiles returns every .dsn under the repo-level corpus and the
// examples tree, relative to this package.
func corpusFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".dsn") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	if len(files) == 0 {
		t.Fatalf("no .dsn files under %s", dir)
	}
	return files
}

// TestScenarioCorpus runs every positive scenario through the live stack
// with record/replay verification on: all assertions must hold, the
// recording must pass the offline verifier, and the offline re-evaluation
// must agree with the live run. Every flight-capable scenario also runs on
// the other runtime (kernel ↔ dist on the default goroutine fleet), which
// must measure the same and record the same bytes — the cross-runtime
// oracle over the whole corpus. -update refreshes goldens in place.
func TestScenarioCorpus(t *testing.T) {
	var files []string
	files = append(files, corpusFiles(t, filepath.Join("..", "..", "testdata", "scenarios", "positive"))...)
	for _, dir := range []string{"quickstart", "churn"} {
		files = append(files, corpusFiles(t, filepath.Join("..", "..", "examples", dir))...)
	}
	for _, path := range files {
		path := path
		t.Run(strings.TrimSuffix(filepath.Base(path), ".dsn"), func(t *testing.T) {
			t.Parallel()
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			opts := RunOptions{Update: *update}
			if FlightCapable(s.Spec.protocol()) {
				opts.Verify = true
			}
			res, err := Run(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			if werr := res.Write(&report); werr != nil {
				t.Fatal(werr)
			}
			if !res.Passed() {
				t.Fatalf("scenario failed:\n%s", report.String())
			}
			if opts.Verify && !*update {
				other := broadcast.RuntimeDist
				if s.Spec.Runtime == broadcast.RuntimeDist {
					other = broadcast.RuntimeKernel
				}
				alt, err := Run(s, RunOptions{Verify: true, Runtime: other})
				if err != nil {
					t.Fatal(err)
				}
				if alt.Measured != res.Measured {
					t.Errorf("runtime %s measures differently:\n got %+v\nwant %+v", other, alt.Measured, res.Measured)
				}
				if !bytes.Equal(alt.Recording, res.Recording) {
					t.Errorf("runtime %s records different bytes (%d vs %d)", other, len(alt.Recording), len(res.Recording))
				}
			}
			if *update && res.Updated != nil {
				if werr := os.WriteFile(path, res.Updated, 0o644); werr != nil {
					t.Fatal(werr)
				}
				t.Logf("updated goldens in %s", path)
			}
			// Round-trip: the on-disk file must already be canonical, so
			// CLI- and editor-authored files stay diff-stable.
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			if got := s2.Format(); !bytes.Equal(raw, got) {
				t.Errorf("%s is not in canonical form; re-save it as:\n%s", path, got)
			}
		})
	}
}

// TestScenarioCorpusNegative runs the intentionally-violated fixtures:
// each must load fine but fail at least one assertion with a structured
// message naming the violated bound.
func TestScenarioCorpusNegative(t *testing.T) {
	for _, path := range corpusFiles(t, filepath.Join("..", "..", "testdata", "scenarios", "negative")) {
		path := path
		t.Run(strings.TrimSuffix(filepath.Base(path), ".dsn"), func(t *testing.T) {
			t.Parallel()
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(s, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Passed() {
				t.Fatalf("negative fixture %s unexpectedly passed", path)
			}
			for _, o := range res.Failures() {
				if o.Detail == "" {
					t.Errorf("failure outcome %q has no detail", o.Assertion)
				}
				if !strings.Contains(o.String(), "FAIL") {
					t.Errorf("failure outcome %q does not render FAIL: %s", o.Assertion, o)
				}
			}
		})
	}
}
