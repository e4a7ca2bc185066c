package broadcast

import (
	"testing"
	"testing/quick"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

func buildAssigned(t testing.TB, seed int64, n int, cond timeslot.Condition) *timeslot.Assignment {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := cnet.BuildFromGraph(d.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return timeslot.New(c, cond)
}

func TestICFFCompletesFromRoot(t *testing.T) {
	a := buildAssigned(t, 1, 120, timeslot.ConditionStrict)
	m, err := RunICFF(a, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("ICFF incomplete: %s", m)
	}
	if m.CompletionRound > m.ScheduleLen {
		t.Fatalf("completion %d after schedule %d", m.CompletionRound, m.ScheduleLen)
	}
	// Theorem 1: schedule length is delta*h + Delta (plus empty preamble).
	hBT := a.Net().Backbone().Height()
	want := a.SmallDelta()*hBT + a.Delta()
	if m.ScheduleLen > want {
		t.Fatalf("schedule %d exceeds delta*h+Delta = %d", m.ScheduleLen, want)
	}
}

func TestICFFAwakeBound(t *testing.T) {
	// Theorem 1(2): each node awake at most 2*delta + Delta rounds (plus
	// the preamble hop for the source path, absent here).
	a := buildAssigned(t, 2, 150, timeslot.ConditionStrict)
	m, err := RunICFF(a, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2*a.SmallDelta() + a.Delta()
	if m.MaxAwake > bound {
		t.Fatalf("max awake %d exceeds 2delta+Delta = %d", m.MaxAwake, bound)
	}
}

func TestICFFFromNonRootSource(t *testing.T) {
	a := buildAssigned(t, 3, 80, timeslot.ConditionStrict)
	// Pick a deep node as source.
	tr := a.Net().Tree()
	var source graph.NodeID
	best := -1
	for _, id := range tr.Nodes() {
		if d := tr.Depth(id); d > best {
			best, source = d, id
		}
	}
	m, err := RunICFF(a, source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("ICFF from %d incomplete: %s", source, m)
	}
}

func TestICFFUnknownSource(t *testing.T) {
	a := buildAssigned(t, 3, 20, timeslot.ConditionStrict)
	if _, err := RunICFF(a, 9999, Options{}); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestCFFCompletes(t *testing.T) {
	a := buildAssigned(t, 4, 120, timeslot.ConditionStrict)
	m, err := RunCFF(a, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("CFF incomplete: %s", m)
	}
	// Lemma 1: at most Delta_u * h rounds.
	h := a.Net().Tree().Height()
	if m.ScheduleLen > a.Max(timeslot.U)*h {
		t.Fatalf("schedule %d exceeds Delta*h = %d", m.ScheduleLen, a.Max(timeslot.U)*h)
	}
}

func TestDFOCompletesAndIsCollisionFree(t *testing.T) {
	a := buildAssigned(t, 5, 120, timeslot.ConditionStrict)
	m, err := RunDFO(a.Net(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("DFO incomplete: %s", m)
	}
	if m.Collisions != 0 {
		t.Fatalf("DFO had %d collisions", m.Collisions)
	}
	// One transmitter per round: tour of 2(|BT|-1) transmissions.
	btSize := a.Net().Backbone().Size()
	if m.ScheduleLen != 2*(btSize-1) {
		t.Fatalf("DFO schedule %d, want %d", m.ScheduleLen, 2*(btSize-1))
	}
	// Every node is awake for the entire tour (the paper's energy
	// criticism of the baseline).
	for id, aw := range m.Awake {
		if aw != m.ScheduleLen {
			t.Fatalf("node %d awake %d of %d rounds", id, aw, m.ScheduleLen)
		}
	}
}

func TestDFOFromMemberSource(t *testing.T) {
	a := buildAssigned(t, 6, 80, timeslot.ConditionStrict)
	members := a.Net().Members()
	if len(members) == 0 {
		t.Skip("no members in this seed")
	}
	m, err := RunDFO(a.Net(), members[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("DFO from member incomplete: %s", m)
	}
}

func TestICFFFasterAndLighterThanDFO(t *testing.T) {
	// The paper's headline comparison (Figs. 8 and 9).
	a := buildAssigned(t, 7, 300, timeslot.ConditionStrict)
	icff, err := RunICFF(a, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dfo, err := RunDFO(a.Net(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !icff.Completed || !dfo.Completed {
		t.Fatalf("incomplete: %s / %s", icff, dfo)
	}
	if icff.ScheduleLen >= dfo.ScheduleLen {
		t.Fatalf("ICFF (%d) not faster than DFO (%d)", icff.ScheduleLen, dfo.ScheduleLen)
	}
	if icff.MaxAwake >= dfo.MaxAwake {
		t.Fatalf("ICFF awake (%d) not below DFO (%d)", icff.MaxAwake, dfo.MaxAwake)
	}
}

func TestMultiChannelSpeedup(t *testing.T) {
	a := buildAssigned(t, 8, 200, timeslot.ConditionStrict)
	m1, err := RunICFF(a, 0, Options{Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := RunICFF(a, 0, Options{Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Completed || !m4.Completed {
		t.Fatalf("incomplete: %s / %s", m1, m4)
	}
	if m4.ScheduleLen >= m1.ScheduleLen {
		t.Fatalf("k=4 schedule %d not shorter than k=1 %d", m4.ScheduleLen, m1.ScheduleLen)
	}
	if m4.MaxAwake > m1.MaxAwake {
		t.Fatalf("k=4 awake %d worse than k=1 %d", m4.MaxAwake, m1.MaxAwake)
	}
}

func TestDFOStallsOnFailure(t *testing.T) {
	// Kill the second tour node right before it relays: the token is lost
	// and the remaining backbone never hears the payload (Section 3.3,
	// Robustness).
	a := buildAssigned(t, 9, 150, timeslot.ConditionStrict)
	bt := a.Net().Backbone()
	tour := bt.EulerTour(bt.Root())
	if len(tour) < 4 {
		t.Skip("backbone too small")
	}
	victim := tour[1]
	m, err := RunDFO(a.Net(), 0, Options{Config: radio.Config{Failures: []NodeFailure{{Node: victim, Round: 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed {
		t.Fatal("DFO completed despite token loss")
	}
}

func TestICFFSurvivesSameFailureBetter(t *testing.T) {
	a := buildAssigned(t, 9, 150, timeslot.ConditionStrict)
	bt := a.Net().Backbone()
	tour := bt.EulerTour(bt.Root())
	victim := tour[1]
	fail := []NodeFailure{{Node: victim, Round: 2}}
	icff, err := RunICFF(a, 0, Options{Config: radio.Config{Failures: fail}})
	if err != nil {
		t.Fatal(err)
	}
	dfo, err := RunDFO(a.Net(), 0, Options{Config: radio.Config{Failures: fail}})
	if err != nil {
		t.Fatal(err)
	}
	if icff.Received < dfo.Received {
		t.Fatalf("ICFF delivered %d < DFO %d under identical failure", icff.Received, dfo.Received)
	}
	if icff.Received <= 1 {
		t.Fatalf("ICFF delivered almost nothing: %s", icff)
	}
}

func TestGuardedPlanMatchesUnguarded(t *testing.T) {
	a := buildAssigned(t, 14, 100, timeslot.ConditionStrict)
	g1, err := ICFFPlanGuarded(a, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ICFFPlan(a, 0, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g1.ScheduleLen != plain.ScheduleLen {
		t.Fatalf("guard=1 schedule %d != plain %d", g1.ScheduleLen, plain.ScheduleLen)
	}
	m, err := g1.Run(a.Net().Graph(), Options{})
	if err != nil || !m.Completed {
		t.Fatalf("guard=1 run: %v %s", err, m)
	}
}

func TestGuardToleratesSkew(t *testing.T) {
	a := buildAssigned(t, 15, 120, timeslot.ConditionStrict)
	g := a.Net().Graph()
	// Alternate +1/-1 offsets across nodes.
	skew := make(map[graph.NodeID]int)
	for i, id := range a.Net().Tree().Nodes() {
		skew[id] = (i%3 - 1) // -1, 0, +1
	}
	guarded, err := ICFFPlanGuarded(a, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := guarded.Run(g, Options{Config: radio.Config{Skew: skew}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatalf("guard=3 failed under skew 1: %s", m)
	}
	// Unguarded schedule under the same skew must lose nodes.
	plain, err := ICFFPlan(a, 0, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := plain.Run(g, Options{Config: radio.Config{Skew: skew}})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Completed {
		t.Fatalf("unguarded schedule survived skew: %s", mp)
	}
}

func TestGuardScheduleCost(t *testing.T) {
	a := buildAssigned(t, 16, 80, timeslot.ConditionStrict)
	p1, err := ICFFPlanGuarded(a, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := ICFFPlanGuarded(a, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p5.ScheduleLen <= p1.ScheduleLen {
		t.Fatalf("guard=5 schedule %d not above guard=1 %d", p5.ScheduleLen, p1.ScheduleLen)
	}
	// Cost is bounded by roughly (G+2) x the unguarded windows.
	if p5.ScheduleLen > 7*p1.ScheduleLen+10 {
		t.Fatalf("guard=5 schedule %d unreasonably large vs %d", p5.ScheduleLen, p1.ScheduleLen)
	}
}

func TestLinkFailureDegradesNotCrashes(t *testing.T) {
	a := buildAssigned(t, 17, 100, timeslot.ConditionStrict)
	tr := a.Net().Tree()
	// Cut the root's first child link before flooding starts.
	children := tr.Children(tr.Root())
	if len(children) == 0 {
		t.Skip("root has no children")
	}
	m, err := RunICFF(a, 0, Options{Config: radio.Config{
		LinkFailures: []LinkFailure{{A: tr.Root(), B: children[0], Round: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Received == 0 {
		t.Fatal("nothing delivered at all")
	}
}

func TestSingleNodeBroadcasts(t *testing.T) {
	c := cnet.New(0, nil)
	a := timeslot.New(c, timeslot.ConditionStrict)
	for name, run := range map[string]func() (Metrics, error){
		"icff": func() (Metrics, error) { return RunICFF(a, 0, Options{}) },
		"cff":  func() (Metrics, error) { return RunCFF(a, 0, Options{}) },
		"dfo":  func() (Metrics, error) { return RunDFO(c, 0, Options{}) },
	} {
		m, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !m.Completed || m.Received != 1 {
			t.Fatalf("%s on singleton: %s", name, m)
		}
	}
}

func TestTwoNodeBroadcasts(t *testing.T) {
	c := cnet.New(0, nil)
	if _, _, err := c.MoveIn(1, []graph.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	a := timeslot.New(c, timeslot.ConditionStrict)
	for _, src := range []graph.NodeID{0, 1} {
		for name, run := range map[string]func() (Metrics, error){
			"icff": func() (Metrics, error) { return RunICFF(a, src, Options{}) },
			"cff":  func() (Metrics, error) { return RunCFF(a, src, Options{}) },
			"dfo":  func() (Metrics, error) { return RunDFO(c, src, Options{}) },
		} {
			m, err := run()
			if err != nil {
				t.Fatalf("%s src=%d: %v", name, src, err)
			}
			if !m.Completed {
				t.Fatalf("%s src=%d incomplete: %s", name, src, m)
			}
		}
	}
}

func TestDeliveryRatio(t *testing.T) {
	m := Metrics{Audience: 4, Received: 3}
	if m.DeliveryRatio() != 0.75 {
		t.Fatalf("ratio = %v", m.DeliveryRatio())
	}
	if (Metrics{}).DeliveryRatio() != 1 {
		t.Fatal("empty audience ratio should be 1")
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{Protocol: "ICFF", Audience: 2, Received: 2}
	if m.String() == "" {
		t.Fatal("empty summary")
	}
}

// Property: on random paper deployments, ICFF, CFF (k in {1,2,3}) and DFO
// all complete, and ICFF's schedule never exceeds the Theorem 1 bound.
func TestProtocolsCompleteProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, kRaw uint8) bool {
		n := int(nRaw%80) + 2
		k := int(kRaw%3) + 1
		d, err := workload.IncrementalConnected(workload.PaperConfig(seed, 8, n))
		if err != nil {
			return false
		}
		c, _, err := cnet.BuildFromGraph(d.Graph(), 0, nil)
		if err != nil {
			return false
		}
		a := timeslot.New(c, timeslot.ConditionStrict)
		icff, err := RunICFF(a, 0, Options{Channels: k})
		if err != nil || !icff.Completed {
			return false
		}
		cff, err := RunCFF(a, 0, Options{Channels: k})
		if err != nil || !cff.Completed {
			return false
		}
		dfo, err := RunDFO(c, 0, Options{})
		if err != nil || !dfo.Completed {
			return false
		}
		hBT := c.Backbone().Height()
		bW := (a.SmallDelta() + k - 1) / k
		lW := (a.Delta() + k - 1) / k
		return icff.ScheduleLen <= hBT*bW+lW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
