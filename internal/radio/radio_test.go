package radio

import (
	"testing"

	"dynsens/internal/graph"
)

// scriptProg executes a fixed per-round action script, then sleeps. It
// records everything delivered to it.
type scriptProg struct {
	script   map[int]Action
	received []Message
	doneFrom int // Done() after this many rounds of script exhausted; 0 = when script empty
	lastAct  int
}

func newScript(script map[int]Action) *scriptProg {
	return &scriptProg{script: script}
}

func (p *scriptProg) Act(round int) Action {
	p.lastAct = round
	if a, ok := p.script[round]; ok {
		return a
	}
	return SleepAction()
}

func (p *scriptProg) Deliver(_ int, msg Message) { p.received = append(p.received, msg) }

func (p *scriptProg) Done() bool {
	for r := range p.script {
		if r > p.lastAct {
			return false
		}
	}
	return true
}

func pair(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

func runEngine(t *testing.T, g *graph.Graph, progs map[graph.NodeID]Program, rounds int) Result {
	t.Helper()
	e, err := NewEngine(g, progs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(rounds)
}

func TestSingleTransmitterDelivers(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 7, Src: 0})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	res := runEngine(t, g, map[graph.NodeID]Program{0: tx, 1: rx}, 5)
	if len(rx.received) != 1 || rx.received[0].Seq != 7 {
		t.Fatalf("received %v", rx.received)
	}
	if rx.received[0].From != 0 {
		t.Fatalf("From not stamped: %+v", rx.received[0])
	}
	if res.Deliveries != 1 || res.Collisions != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCollisionTwoTransmitters(t *testing.T) {
	// 0 and 2 both transmit to 1 in the same round: collision, nothing heard.
	g := graph.New()
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 1)
	a := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 1})})
	b := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 2})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	res := runEngine(t, g, map[graph.NodeID]Program{0: a, 2: b, 1: rx}, 3)
	if len(rx.received) != 0 {
		t.Fatalf("collision delivered: %v", rx.received)
	}
	if res.Collisions != 1 {
		t.Fatalf("collisions = %d", res.Collisions)
	}
}

func TestNoCollisionAcrossChannels(t *testing.T) {
	// Two transmitters on different channels; listener tuned to channel 1
	// hears only that transmitter.
	g := graph.New()
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 1)
	a := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 10})})
	b := newScript(map[int]Action{1: TransmitOn(1, Message{Seq: 20})})
	rx := newScript(map[int]Action{1: ListenOn(1)})
	res := runEngine(t, g, map[graph.NodeID]Program{0: a, 2: b, 1: rx}, 3)
	if len(rx.received) != 1 || rx.received[0].Seq != 20 {
		t.Fatalf("received %v", rx.received)
	}
	if res.Collisions != 0 {
		t.Fatalf("collisions = %d", res.Collisions)
	}
}

func TestNonNeighborNotHeard(t *testing.T) {
	g := graph.New()
	g.AddNode(0)
	g.AddNode(1) // no edge
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 5})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	res := runEngine(t, g, map[graph.NodeID]Program{0: tx, 1: rx}, 2)
	if len(rx.received) != 0 || res.Deliveries != 0 {
		t.Fatalf("non-neighbor heard: %v", rx.received)
	}
}

func TestSleepingNodeHearsNothing(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 5})})
	rx := newScript(map[int]Action{}) // always sleeps
	runEngine(t, g, map[graph.NodeID]Program{0: tx, 1: rx}, 2)
	if len(rx.received) != 0 {
		t.Fatal("sleeping node received")
	}
}

func TestAwakeAccounting(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{}), 3: TransmitOn(0, Message{})})
	rx := newScript(map[int]Action{1: ListenOn(0), 2: ListenOn(0)})
	res := runEngine(t, g, map[graph.NodeID]Program{0: tx, 1: rx}, 4)
	if res.Awake[0] != 2 {
		t.Fatalf("tx awake = %d", res.Awake[0])
	}
	if res.Awake[1] != 2 {
		t.Fatalf("rx awake = %d", res.Awake[1])
	}
	if res.Transmissions != 2 {
		t.Fatalf("transmissions = %d", res.Transmissions)
	}
	if res.MaxAwake() != 2 {
		t.Fatalf("MaxAwake = %d", res.MaxAwake())
	}
	if res.MeanAwake() != 2 {
		t.Fatalf("MeanAwake = %v", res.MeanAwake())
	}
}

func TestQuiescence(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	res := runEngine(t, g, map[graph.NodeID]Program{0: tx, 1: rx}, 100)
	if !res.Quiesced {
		t.Fatal("did not quiesce")
	}
	if res.Rounds >= 100 {
		t.Fatalf("ran full %d rounds", res.Rounds)
	}
}

func TestNodeFailureSilences(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{2: TransmitOn(0, Message{Seq: 9})})
	rx := newScript(map[int]Action{2: ListenOn(0)})
	// Node 0 dies at start of round 2: its transmit never happens.
	e, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rx}, Config{Failures: []NodeFailure{{Node: 0, Round: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(rx.received) != 0 {
		t.Fatal("dead node transmitted")
	}
}

func TestNodeFailureAfterTransmit(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 9})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	// Node 0 dies after round 1: its transmit succeeds.
	e, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rx}, Config{Failures: []NodeFailure{{Node: 0, Round: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(rx.received) != 1 {
		t.Fatal("round-1 transmit lost")
	}
}

func TestLinkFailure(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{2: TransmitOn(0, Message{Seq: 9})})
	rx := newScript(map[int]Action{2: ListenOn(0)})
	e, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rx}, Config{LinkFailures: []LinkFailure{{A: 1, B: 0, Round: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(3)
	if len(rx.received) != 0 {
		t.Fatal("cut link carried a message")
	}
	if res.Deliveries != 0 {
		t.Fatalf("deliveries = %d", res.Deliveries)
	}
}

func TestDeadNeighborDoesNotJam(t *testing.T) {
	// 0 and 2 would collide at 1, but 2 dies first: 1 hears 0.
	g := graph.New()
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 1)
	a := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 1})})
	b := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 2})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	e, err := NewEngine(g, map[graph.NodeID]Program{0: a, 2: b, 1: rx}, Config{Failures: []NodeFailure{{Node: 2, Round: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	if len(rx.received) != 1 || rx.received[0].Seq != 1 {
		t.Fatalf("received %v", rx.received)
	}
}

func TestEngineRejectsMissingProgram(t *testing.T) {
	g := pair(t)
	_, err := NewEngine(g, map[graph.NodeID]Program{0: newScript(nil)}, Config{})
	if err == nil {
		t.Fatal("missing program accepted")
	}
	_, err = NewEngine(g, map[graph.NodeID]Program{
		0: newScript(nil), 1: newScript(nil), 7: newScript(nil),
	}, Config{})
	if err == nil {
		t.Fatal("extra program accepted")
	}
}

func TestTraceEvents(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 3})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	var evs []Event
	e, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rx}, Config{TraceBatch: func(batch []Event) { evs = append(evs, batch...) }})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	var sawTx, sawRx bool
	for _, ev := range evs {
		switch ev.Kind {
		case EvTransmit:
			sawTx = true
			if ev.Node != 0 {
				t.Fatalf("tx event node = %d", ev.Node)
			}
		case EvDeliver:
			sawRx = true
			if ev.Node != 1 || ev.Peer != 0 {
				t.Fatalf("rx event = %+v", ev)
			}
		}
	}
	if !sawTx || !sawRx {
		t.Fatalf("missing events: %+v", evs)
	}
}

func TestActionKindString(t *testing.T) {
	if Sleep.String() != "sleep" || Listen.String() != "listen" || Transmit.String() != "transmit" {
		t.Fatal("ActionKind strings wrong")
	}
	if ActionKind(42).String() == "" {
		t.Fatal("unknown kind should format")
	}
}

func TestTransmitterDoesNotHearItself(t *testing.T) {
	// A node transmitting cannot simultaneously receive; also its own
	// transmission must not count toward a neighbor's collision with
	// itself. Node 0 transmits; node 1 transmits too but on another
	// channel; listener 2 hears node 0 only.
	g := graph.New()
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(1, 2)
	a := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 1})})
	b := newScript(map[int]Action{1: TransmitOn(1, Message{Seq: 2})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	res := runEngine(t, g, map[graph.NodeID]Program{0: a, 1: b, 2: rx}, 2)
	if len(rx.received) != 1 || rx.received[0].Seq != 1 {
		t.Fatalf("received %v", rx.received)
	}
	if res.Collisions != 0 {
		t.Fatalf("collisions = %d", res.Collisions)
	}
}

func TestClockSkewShiftsSchedule(t *testing.T) {
	// Transmitter believes it is one round later than it is: its local
	// round-2 transmission happens at global round 1; a listener tuned to
	// global round 1 hears it.
	g := pair(t)
	tx := newScript(map[int]Action{2: TransmitOn(0, Message{Seq: 5})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	e, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rx}, Config{Skew: map[graph.NodeID]int{0: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(rx.received) != 1 || rx.received[0].Seq != 5 {
		t.Fatalf("skewed transmission not heard at shifted round: %v", rx.received)
	}
}

func TestClockSkewBreaksAlignment(t *testing.T) {
	// Without compensation, a -1-skewed transmitter fires one global
	// round late and the listener misses it.
	g := pair(t)
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 5})})
	rx := newScript(map[int]Action{1: ListenOn(0)})
	e, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rx}, Config{Skew: map[graph.NodeID]int{0: -1}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(rx.received) != 0 {
		t.Fatalf("misaligned transmission heard: %v", rx.received)
	}
}

func TestDeliverSeesLocalRound(t *testing.T) {
	g := pair(t)
	tx := newScript(map[int]Action{1: TransmitOn(0, Message{Seq: 5})})
	rx := newScript(map[int]Action{0: ListenOn(0), 1: ListenOn(0)})
	skew := Config{Skew: map[graph.NodeID]int{1: 1}} // listener's local round 2 == global round 1
	e, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rx}, skew)
	if err != nil {
		t.Fatal(err)
	}
	var localRound int
	rxWrapped := &roundCapture{inner: rx, last: &localRound}
	e2, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rxWrapped}, skew)
	if err != nil {
		t.Fatal(err)
	}
	e2.Run(2)
	_ = e
	if localRound != 2 {
		t.Fatalf("Deliver saw round %d, want local 2", localRound)
	}
}

type roundCapture struct {
	inner *scriptProg
	last  *int
}

func (r *roundCapture) Act(round int) Action { return ListenOn(0) }
func (r *roundCapture) Deliver(round int, msg Message) {
	*r.last = round
	r.inner.Deliver(round, msg)
}
func (r *roundCapture) Done() bool { return false }

func TestLossRateBoundsAndEffect(t *testing.T) {
	g := pair(t)
	progs := func() map[graph.NodeID]Program { return map[graph.NodeID]Program{0: newScript(nil), 1: newScript(nil)} }
	if _, err := NewEngine(g, progs(), Config{LossRate: -0.1, LossSeed: 1}); err == nil {
		t.Fatal("negative loss accepted")
	}
	if _, err := NewEngine(g, progs(), Config{LossRate: 1, LossSeed: 1}); err == nil {
		t.Fatal("loss rate 1 accepted")
	}
	if _, err := NewEngine(g, progs(), Config{LossRate: 0.5, LossSeed: 1}); err != nil {
		t.Fatal(err)
	}
	// With heavy loss, repeated transmissions sometimes fail to arrive.
	script := make(map[int]Action)
	rxScript := make(map[int]Action)
	for r := 1; r <= 40; r++ {
		script[r] = TransmitOn(0, Message{Seq: r})
		rxScript[r] = ListenOn(0)
	}
	tx := newScript(script)
	rx := newScript(rxScript)
	e2, err := NewEngine(g, map[graph.NodeID]Program{0: tx, 1: rx}, Config{LossRate: 0.5, LossSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e2.Run(40)
	if len(rx.received) == 0 || len(rx.received) == 40 {
		t.Fatalf("50%% loss delivered %d/40 frames", len(rx.received))
	}
}

func TestRunZeroRounds(t *testing.T) {
	g := pair(t)
	res := runEngine(t, g, map[graph.NodeID]Program{0: newScript(nil), 1: newScript(nil)}, 0)
	if res.Rounds != 0 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}
