package main

import (
	"errors"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/flight"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
}

func TestDigestOrderAndValueSensitive(t *testing.T) {
	a, b, c := newDigest(), newDigest(), newDigest()
	a.fold(1, 2)
	b.fold(2, 1)
	c.fold(1, 2)
	if a.hex() == b.hex() {
		t.Error("digest ignores order")
	}
	if a.hex() != c.hex() {
		t.Error("digest not deterministic")
	}
}

// TestErrorRateCountsEachFailureKind drives every check the benchmark
// applies with a passing and a failing input and checks the tally.
func TestErrorRateCountsEachFailureKind(t *testing.T) {
	ok := broadcast.Metrics{Protocol: "ICFF", Rounds: 10, Received: 5, Audience: 5, Completed: true}
	short := ok
	short.Received, short.Completed = 4, false
	long := ok
	long.Rounds = 11
	differs := ok
	differs.Collisions = 1
	bad := &flight.Report{Checks: []flight.Check{{Name: "structure", Err: errors.New("bad parent")}}}
	good := &flight.Report{Checks: []flight.Check{{Name: "structure"}}}

	cases := []struct {
		name string
		pass *failure
		fail *failure
		kind string
	}{
		{"error", nil, fail("cnet", failError, errors.New("boom")), failError},
		{"incomplete", checkRun(short, 10, false), checkRun(short, 10, true), failIncomplete},
		{"bound", checkRun(ok, 10, true), checkRun(long, 10, true), failBound},
		{"flight", checkFlight(good), checkFlight(bad), failFlight},
		{"dist", checkDist(ok, ok), checkDist(differs, ok), failDist},
	}
	tl := newTally()
	for _, c := range cases {
		if c.pass != nil {
			t.Errorf("%s: passing input failed: %v", c.name, c.pass)
		}
		if c.fail == nil || c.fail.kind != c.kind {
			t.Fatalf("%s: failing input gave %v, want kind %s", c.name, c.fail, c.kind)
		}
		tl.op(c.pass)
		tl.op(c.fail)
	}
	// Run-end verification and the digest charge ops already attempted.
	tl.record(fail("core", failNetwork, errors.New("tree broken")))
	tl.record(fail("benchmark", failDigest, errors.New("digest differs")))
	if tl.attempted != 2*len(cases) || tl.failed != len(cases)+2 {
		t.Fatalf("attempted %d failed %d", tl.attempted, tl.failed)
	}
	if got, want := tl.errorRate(), float64(len(cases)+2)/float64(2*len(cases)); got != want {
		t.Errorf("error rate %g, want %g", got, want)
	}
	for _, k := range []string{failError, failIncomplete, failBound, failFlight, failDist, failNetwork, failDigest} {
		if tl.byKind[k] != 1 {
			t.Errorf("kind %s counted %d times", k, tl.byKind[k])
		}
	}
	if tl.byLayer["broadcast"] != 2 || tl.byLayer["core"] != 1 {
		t.Errorf("by layer %v", tl.byLayer)
	}

	// Failures never exceed attempts.
	one := newTally()
	one.op(fail("dist", failDist, errors.New("x")))
	one.record(fail("core", failNetwork, errors.New("y")))
	if one.failed != 1 || one.errorRate() != 1 {
		t.Errorf("failed %d rate %g", one.failed, one.errorRate())
	}
}
