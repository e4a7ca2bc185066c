package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dynsens/internal/cnet"
	"dynsens/internal/flight"
	"dynsens/internal/obs"
	"dynsens/internal/radio"
)

// measuredFixture is a fully-populated live measurement for evaluator tests.
func measuredFixture() Measured {
	return Measured{
		Protocol:    "ICFF",
		ScheduleLen: 20, Rounds: 18, Audience: 100, Received: 100,
		Completed: true, CompletionRound: 18,
		MaxAwake: 4, MeanAwake: 1.5, Collisions: 0, Transmissions: 60,
		Quiesced: true, Energy: 3.25,
		HasAwake: true, HasEnergy: true, HasQuiesced: true,
	}
}

func boundsFixture() Bounds {
	// lemma1 = 1 + ceil(6/2)*(5+1) = 19; theorem1 = 1 + ceil(2/2)*4 + ceil(4/2) = 7
	// lemma1-awake = 2*3 = 6; theorem1-awake = 2*1 + 2 = 4; dfo = 4*3-2 = 10
	return Bounds{K: 2, DeltaU: 6, SmallDelta: 2, Delta: 4, H: 5, HBT: 4, Heads: 3, Pre: 1}
}

// TestAssertionEval is the table-driven pass/fail/boundary matrix over the
// assertion vocabulary.
func TestAssertionEval(t *testing.T) {
	m := measuredFixture()
	b := boundsFixture()
	cases := []struct {
		line    string
		mutate  func(*Measured)
		ok      bool
		skipped bool
		detail  string // substring the outcome detail must contain
	}{
		// Keywords.
		{line: "completed", ok: true, detail: "received 100/100"},
		{line: "completed", mutate: func(m *Measured) { m.Received = 99; m.Completed = false }, ok: false, detail: "received 99/100"},
		{line: "quiescent", ok: true, detail: "quiesced=true"},
		{line: "quiescent", mutate: func(m *Measured) { m.Quiesced = false }, ok: false, detail: "quiesced=false"},
		{line: "quiescent", mutate: func(m *Measured) { m.HasQuiesced = false }, ok: true, skipped: true, detail: "not evaluable offline"},
		{line: "collision-free", ok: true, detail: "collisions = 0"},
		{line: "collision-free", mutate: func(m *Measured) { m.Collisions = 3 }, ok: false, detail: "collisions = 3"},

		// Numeric comparisons, including exact boundaries.
		{line: "delivery-ratio >= 1", ok: true},
		{line: "delivery-ratio >= 1", mutate: func(m *Measured) { m.Received = 80 }, ok: false, detail: "0.8 violates >= 1"},
		{line: "rounds <= 18", ok: true, detail: "18 satisfies <= 18"},
		{line: "rounds < 18", ok: false, detail: "18 violates < 18"},
		{line: "rounds == 18", ok: true},
		{line: "rounds != 18", ok: false},
		{line: "completion-round <= 17", ok: false, detail: "18 violates <= 17"},
		{line: "transmissions <= 60", ok: true},
		{line: "received >= 100", ok: true},
		{line: "energy <= 3.25", ok: true},
		{line: "energy <= 3.2", ok: false, detail: "3.25 violates <= 3.2"},
		{line: "energy <= 3.25", mutate: func(m *Measured) { m.HasEnergy = false }, ok: true, skipped: true, detail: "not recorded"},
		{line: "max-awake <= 4", ok: true},
		{line: "max-awake <= 4", mutate: func(m *Measured) { m.HasAwake = false }, ok: true, skipped: true, detail: "not recorded"},
		{line: "mean-awake < 2", ok: true},

		// Symbolic paper bounds (values derived in boundsFixture).
		{line: "rounds <= lemma1", ok: true, detail: "lemma1 = 19"},
		{line: "rounds <= theorem1", ok: false, detail: "theorem1 = 7"},
		{line: "max-awake <= lemma1-awake", ok: true, detail: "lemma1-awake = 6"},
		{line: "max-awake <= theorem1-awake", ok: true, detail: "theorem1-awake = 4"},
		{line: "rounds <= dfo", ok: false, detail: "dfo = 10 (4p-2 with p=3)"},
	}
	for _, tc := range cases {
		name := tc.line
		if tc.mutate != nil {
			name += " (mutated)"
		}
		t.Run(name, func(t *testing.T) {
			a, err := ParseAssertion(tc.line)
			if err != nil {
				t.Fatal(err)
			}
			mm := m
			if tc.mutate != nil {
				tc.mutate(&mm)
			}
			o := a.Eval(mm, b)
			if o.OK != tc.ok || o.Skipped != tc.skipped {
				t.Fatalf("Eval(%q) = ok=%v skipped=%v, want ok=%v skipped=%v (%s)",
					tc.line, o.OK, o.Skipped, tc.ok, tc.skipped, o.Detail)
			}
			if tc.detail != "" && !strings.Contains(o.Detail, tc.detail) {
				t.Fatalf("Eval(%q) detail %q does not contain %q", tc.line, o.Detail, tc.detail)
			}
		})
	}
}

func TestAssertionParseErrors(t *testing.T) {
	for _, line := range []string{
		"bogus",                // unknown keyword
		"rounds <= ",           // missing bound
		"rounds ~= 3",          // unknown operator
		"warp-factor <= 9",     // unknown metric
		"rounds <= warpfactor", // unknown symbol / non-number
		"rounds <= 1 2",        // too many fields
	} {
		if _, err := ParseAssertion(line); err == nil {
			t.Errorf("ParseAssertion(%q) accepted invalid input", line)
		}
	}
}

func TestDFOBoundFloor(t *testing.T) {
	// p=0 and p=1 both clamp to the 2-round floor instead of going <= 0.
	for heads, want := 0, 2; heads <= 1; heads++ {
		v, _, err := (Bounds{Heads: heads}).Value(SymDFO)
		if err != nil || v != want {
			t.Fatalf("dfo bound with p=%d = %d (%v), want %d", heads, v, err, want)
		}
	}
}

func TestDeliveryRatioEmptyAudience(t *testing.T) {
	if r := (Measured{}).DeliveryRatio(); r != 1 {
		t.Fatalf("empty-audience delivery ratio = %v, want 1", r)
	}
}

func TestParseRejectsInvalidSpecs(t *testing.T) {
	for name, body := range map[string]string{
		"missing spec":       "-- assert --\ncompleted\n",
		"zero n":             "-- spec --\nside = 8\n",
		"unknown protocol":   "-- spec --\nn = 4\nside = 8\nprotocol = warp\n",
		"unknown deploy":     "-- spec --\nn = 4\nside = 8\ndeploy = torus\n",
		"unknown key":        "-- spec --\nn = 4\nside = 8\nwarp = 9\n",
		"unknown section":    "-- spec --\nn = 4\nside = 8\n-- extra --\nx\n",
		"duplicate section":  "-- spec --\nn = 4\nside = 8\n-- spec --\nn = 5\n",
		"NaN loss":           "-- spec --\nn = 4\nside = 8\nloss = NaN\n",
		"loss out of range":  "-- spec --\nn = 4\nside = 8\nloss = 1.5\n",
		"loss one":           "-- spec --\nn = 4\nside = 8\nloss = 1\n",
		"grid churn":         "-- spec --\nn = 4\nside = 8\ndeploy = grid\n-- script --\nchurn 3 0.5\n",
		"two traces":         "-- spec --\nn = 4\nside = 8\n-- script --\nchurn 3 0.5\nmobility 2 0.1\n",
		"fail round zero":    "-- spec --\nn = 4\nside = 8\n-- script --\nfail 1 0\n",
		"pflood no forward":  "-- spec --\nn = 4\nside = 8\nprotocol = pflood\n",
		"bad script verb":    "-- spec --\nn = 4\nside = 8\n-- script --\nwarp 1\n",
		"bad assertion":      "-- spec --\nn = 4\nside = 8\n-- assert --\nwarp <= 9\n",
		"NaN churn frac":     "-- spec --\nn = 4\nside = 8\n-- script --\nchurn 3 NaN\n",
		"spec not key=value": "-- spec --\nn 4\n",
		"unknown runtime":    "-- spec --\nn = 4\nside = 8\nruntime = warp\n",
		"dist gather":        "-- spec --\nn = 4\nside = 8\nprotocol = gather\nruntime = dist\n",
		"dist discovery":     "-- spec --\nn = 4\nside = 8\nprotocol = discovery\nruntime = dist\n",
	} {
		if _, err := Parse([]byte(body)); err == nil {
			t.Errorf("%s: Parse accepted invalid scenario", name)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte("-- spec --\nn = 4\nside = 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	sp := s.Spec
	if sp.protocol() != "icff" || sp.deploy() != "rgg" || sp.channels() != 1 ||
		sp.group() != 1 || sp.groupFrac() != 0.3 || sp.Joiner != -1 {
		t.Fatalf("unexpected defaults: %+v", sp)
	}
	if s.Name() != "scenario" {
		t.Fatalf("fallback name = %q", s.Name())
	}
}

func TestFormatRoundTrip(t *testing.T) {
	const src = `Why not both comment lines
and a second one.
-- spec --
name = round-trip
n = 40
side = 8
seed = -7
protocol = pflood
channels = 2
workers = 4
source = 3
loss = 0.125
loss-seed = 9
forward = 0.5
max-delay = 3
-- script --
fail 2 4
cut 1 3 2
failfrac 0.1
-- assert --
completed
rounds <= theorem1
delivery-ratio >= 0.9
-- metrics --
rounds = 12
`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Format()
	if string(got) != src {
		t.Fatalf("canonical input did not round-trip:\n%s", got)
	}
}

// TestRuntimeKeyRoundTrip pins the runtime spec key: canonical placement
// (after workers), dist accepted for every plan-family protocol, and
// structured rejection of unknown values.
func TestRuntimeKeyRoundTrip(t *testing.T) {
	const src = `-- spec --
name = runtime-round-trip
n = 40
side = 8
protocol = icff
workers = 2
runtime = dist
-- assert --
completed
`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec.Runtime != "dist" {
		t.Fatalf("parsed runtime = %q, want dist", s.Spec.Runtime)
	}
	if got := s.Format(); string(got) != src {
		t.Fatalf("runtime key did not round-trip:\n%s", got)
	}

	if _, err := Parse([]byte("-- spec --\nn = 4\nside = 8\nruntime = warp\n")); err == nil ||
		!strings.Contains(err.Error(), "kernel|dist") {
		t.Fatalf("unknown runtime error = %v, want mention of kernel|dist", err)
	}
}

// TestRunRuntimeOverride pins the -runtime flag path: the override wins
// over the spec, bogus values and dist-incapable protocols fail fast.
func TestRunRuntimeOverride(t *testing.T) {
	parse := func(body string) *Scenario {
		s, err := Parse([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	icff := "-- spec --\nn = 4\nside = 8\n-- assert --\ncompleted\n"
	if _, err := Run(parse(icff), RunOptions{Runtime: "warp"}); err == nil ||
		!strings.Contains(err.Error(), "kernel|dist") {
		t.Fatalf("bogus -runtime error = %v, want mention of kernel|dist", err)
	}
	gather := "-- spec --\nn = 4\nside = 8\nprotocol = gather\n-- assert --\ncompleted\n"
	if _, err := Run(parse(gather), RunOptions{Runtime: "dist"}); err == nil ||
		!strings.Contains(err.Error(), "runtime dist") {
		t.Fatalf("dist gather error = %v, want runtime dist rejection", err)
	}
}

// TestScenarioRuntimeDeterminism is the scenario-level arm of the
// cross-runtime equivalence proof: the same spec under -runtime dist must
// reproduce the kernel's outcomes, measured values and flight recording
// byte for byte.
func TestScenarioRuntimeDeterminism(t *testing.T) {
	src := []byte(`-- spec --
name = runtime-determinism
n = 100
side = 10
seed = 21
protocol = icff
channels = 2
loss = 0.1
loss-seed = 5
-- script --
fail 7 3
cut 2 6 4
-- assert --
delivery-ratio >= 0.8
`)
	var base *Result
	for _, rt := range []string{"kernel", "dist"} {
		s, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, RunOptions{Runtime: rt, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("runtime %s failed: %+v", rt, res.Failures())
		}
		if base == nil {
			base = res
			continue
		}
		if res.Measured != base.Measured {
			t.Errorf("measured differs under dist:\n%+v\nvs\n%+v", res.Measured, base.Measured)
		}
		if !bytes.Equal(res.Recording, base.Recording) {
			t.Errorf("recording differs under dist: %d vs %d bytes", len(res.Recording), len(base.Recording))
		}
	}
}

// TestRunRejectsFaultsOffTheNetwork checks that a scripted fail must name
// a node, and a cut an edge, of the network the script left — for every
// protocol — instead of being traced without touching the run.
func TestRunRejectsFaultsOffTheNetwork(t *testing.T) {
	for _, proto := range []string{"icff", "gather", "discovery"} {
		for _, fault := range []string{"fail 9999 2", "cut 0 59 1"} {
			s, err := Parse([]byte("-- spec --\nn = 60\nside = 8\nseed = 6\nprotocol = " + proto + "\n-- script --\n" + fault + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(s, RunOptions{}); err == nil || !strings.Contains(err.Error(), "after the script") {
				t.Errorf("%s with %q: Run error = %v, want a fault-target error", proto, fault, err)
			}
		}
	}
}

func TestFormatFloatShortest(t *testing.T) {
	for v, want := range map[float64]string{0.3: "0.3", 0.125: "0.125", 1: "1"} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if s := formatFloat(math.Pi); s != "3.141592653589793" {
		t.Errorf("formatFloat(pi) = %q", s)
	}
}

// TestScenarioWorkerDeterminism runs the same recorded scenario at 1 and 4
// engine workers: every assertion outcome must match and the flight
// recordings must be byte-identical — the worker count is purely a
// wall-clock knob.
func TestScenarioWorkerDeterminism(t *testing.T) {
	src := []byte(`-- spec --
name = determinism
n = 120
side = 10
seed = 33
protocol = icff
channels = 2
-- script --
fail 7 3
-- assert --
delivery-ratio >= 0.9
rounds <= theorem1
`)
	var base *Result
	for _, workers := range []int{1, 4} {
		s, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, RunOptions{Workers: workers, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res.Outcomes) != len(base.Outcomes) {
			t.Fatalf("outcome count differs: %d vs %d", len(res.Outcomes), len(base.Outcomes))
		}
		for i := range res.Outcomes {
			if res.Outcomes[i] != base.Outcomes[i] {
				t.Errorf("outcome %d differs at workers=%d:\n%s\nvs\n%s",
					i, workers, res.Outcomes[i], base.Outcomes[i])
			}
		}
		if res.Measured != base.Measured {
			t.Errorf("measured differs at workers=%d:\n%+v\nvs\n%+v", workers, res.Measured, base.Measured)
		}
		if !bytes.Equal(res.Recording, base.Recording) {
			t.Errorf("recording differs at workers=%d: %d vs %d bytes", workers, len(res.Recording), len(base.Recording))
		}
	}
}

// TestRunSinks covers the RunOptions the CLIs attach: the registry gets
// the structure and radio series, the trace hook sees every recorded
// event, Perf counts the run and RecordRing bounds the recording — and
// none of them changes what the run measures or records.
func TestRunSinks(t *testing.T) {
	run := func(body string, opts RunOptions) *Result {
		t.Helper()
		s, err := Parse([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	icff := "-- spec --\nn = 60\nside = 8\nseed = 1\n-- script --\nfailfrac 0.1\n"
	plain := run(icff, RunOptions{Record: true})
	reg := obs.NewRegistry()
	perf := radio.NewPerf()
	events := 0
	sunk := run(icff, RunOptions{Record: true, Obs: reg, Perf: perf,
		TraceBatch: func(evs []radio.Event) { events += len(evs) }})
	if sunk.Measured != plain.Measured || !bytes.Equal(sunk.Recording, plain.Recording) {
		t.Fatal("attaching sinks changed the run")
	}
	if sunk.Stats != plain.Stats || sunk.Stats.Nodes != 60 {
		t.Fatalf("stats = %+v, want 60 nodes and equal across runs", sunk.Stats)
	}
	rec, err := flight.DecodeBytes(plain.Recording)
	if err != nil {
		t.Fatal(err)
	}
	if events != len(rec.Events) {
		t.Errorf("trace hook saw %d events, recording has %d", events, len(rec.Events))
	}
	snap := reg.Snapshot()
	if tx, ok := snap.CounterValue(obs.MetricRadioTransmissions, obs.L("protocol", "ICFF")); !ok || int(tx) != plain.Measured.Transmissions {
		t.Errorf("registry transmissions = %d (present %v), want %d", tx, ok, plain.Measured.Transmissions)
	}
	if _, ok := snap.CounterValue(cnet.MetricMoveIns); !ok {
		t.Error("registry misses the instrumented topology counters")
	}
	if ps := perf.Snapshot(); ps.Runs != 1 || int(ps.Rounds) != plain.Measured.Rounds {
		t.Errorf("perf counted %d runs / %d rounds, want 1 / %d", ps.Runs, ps.Rounds, plain.Measured.Rounds)
	}

	ring := run(icff, RunOptions{Record: true, RecordRing: 8})
	rrec, err := flight.DecodeBytes(ring.Recording)
	if err != nil {
		t.Fatal(err)
	}
	if rrec.Header.RingLimit != 8 || len(rrec.Events) != 8 || rrec.Dropped() == 0 || ring.Measured != plain.Measured {
		t.Errorf("ring recording: limit %d, %d events, %d dropped", rrec.Header.RingLimit, len(rrec.Events), rrec.Dropped())
	}

	events = 0
	run("-- spec --\nn = 60\nside = 8\nseed = 1\nprotocol = gather\n",
		RunOptions{TraceBatch: func(evs []radio.Event) { events += len(evs) }})
	if events == 0 {
		t.Error("gather run fed no events to the trace hook")
	}
}
