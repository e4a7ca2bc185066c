package radio

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dynsens/internal/graph"
	"dynsens/internal/radio/rounds"
)

// scenario describes one randomized engine workload, fully determined by
// its fields, so the reference engine and the kernel can each be handed an
// independent but identically-constructed instance.
type scenario struct {
	seed      int64
	n         int
	extraEdge int     // random chords beyond the connecting tree
	horizon   int     // chaos program horizon and round budget
	rounds    int     // round budget handed to Run
	lossRate  float64 // 0 disables the loss model
	nodeFails int     // scheduled node deaths (rounds may be <=0 or past the budget)
	linkFails int     // scheduled link cuts
	skewed    int     // nodes given a clock offset
	parts     int     // partition windows over random node sets
}

// build constructs a fresh engine for the scenario, running under cfg with
// the scenario's fault schedule added. Every random choice is drawn from
// streams derived only from s, so repeated calls produce byte-identical
// engines with independent program state.
func (s scenario) build(t testing.TB, cfg Config) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	g := graph.New()
	g.AddNode(0)
	for i := 1; i < s.n; i++ {
		_ = g.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
	}
	for i := 0; i < s.extraEdge; i++ {
		u, v := rng.Intn(s.n), rng.Intn(s.n)
		if u != v {
			_ = g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	progs := make(map[graph.NodeID]Program, s.n)
	for _, id := range g.Nodes() {
		progs[id] = &chaosProg{rng: rand.New(rand.NewSource(rng.Int63())), horizon: s.horizon}
	}
	for i := 0; i < s.nodeFails; i++ {
		// Rounds from -1 to rounds+2 cover pre-dead nodes, mid-run deaths,
		// the final maxRounds+1 check, and never-reached schedules.
		cfg.Failures = append(cfg.Failures, NodeFailure{Node: graph.NodeID(rng.Intn(s.n)), Round: rng.Intn(s.rounds+4) - 1})
	}
	for i := 0; i < s.linkFails; i++ {
		u, v := rng.Intn(s.n), rng.Intn(s.n)
		if u != v {
			cfg.LinkFailures = append(cfg.LinkFailures, LinkFailure{A: graph.NodeID(u), B: graph.NodeID(v), Round: rng.Intn(s.rounds + 2)})
		}
	}
	cfg.Skew = make(map[graph.NodeID]int)
	for i := 0; i < s.skewed; i++ {
		cfg.Skew[graph.NodeID(rng.Intn(s.n))] = rng.Intn(5) - 2
	}
	if s.lossRate > 0 {
		cfg.LossRate, cfg.LossSeed = s.lossRate, s.seed*7919+1
	}
	for i := 0; i < s.parts; i++ {
		from := rng.Intn(s.rounds+2) - 1
		p := rounds.Partition{From: from, To: from + rng.Intn(4)}
		for id := 0; id < s.n; id++ {
			if rng.Intn(3) == 0 {
				p.Side = append(p.Side, graph.NodeID(id))
			}
		}
		cfg.Partitions = append(cfg.Partitions, p)
	}
	eng, err := NewEngine(g, progs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// runTraced builds an engine at the given worker count with a trace sink
// that serializes every event — Seq included — into a byte stream, and
// executes it.
func runTraced(build func(Config) *Engine, workers, rounds int, reference bool) (Result, []byte) {
	var buf bytes.Buffer
	eng := build(Config{Workers: workers, TraceBatch: func(evs []Event) {
		for _, ev := range evs {
			fmt.Fprintf(&buf, "%+v\n", ev)
		}
	}})
	if reference {
		return eng.RunReference(rounds), buf.Bytes()
	}
	return eng.Run(rounds), buf.Bytes()
}

// checkEquivalence asserts that the kernel at each worker count reproduces
// the reference engine's Result and trace byte stream for the scenario.
func checkEquivalence(t *testing.T, s scenario, workers []int) {
	t.Helper()
	build := func(cfg Config) *Engine { return s.build(t, cfg) }
	wantRes, wantTrace := runTraced(build, 0, s.rounds, true)
	for _, w := range workers {
		gotRes, gotTrace := runTraced(build, w, s.rounds, false)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("workers=%d: result diverges\n got %+v\nwant %+v", w, gotRes, wantRes)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("workers=%d: trace diverges\n got:\n%s\nwant:\n%s", w, gotTrace, wantTrace)
		}
	}
}

// equivalenceWorkers is the worker matrix the acceptance criteria name:
// 1, 2, and GOMAXPROCS (plus 4 to exercise empty shards on tiny graphs).
func equivalenceWorkers() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// TestEngineEquivalenceSuite is the deterministic determinism proof: for a
// spread of seeded scenarios — plain, lossy, failing, skewed, partitioned,
// and all at once — the kernel must match the reference engine byte for byte at every
// worker count. CI runs this under -race with GOMAXPROCS 1 and 4.
func TestEngineEquivalenceSuite(t *testing.T) {
	cases := []scenario{
		{seed: 1, n: 2, horizon: 4, rounds: 6},
		{seed: 2, n: 9, extraEdge: 6, horizon: 12, rounds: 15},
		{seed: 3, n: 25, extraEdge: 30, horizon: 20, rounds: 20},
		{seed: 4, n: 40, extraEdge: 10, horizon: 18, rounds: 25, nodeFails: 8, linkFails: 6},
		{seed: 5, n: 30, extraEdge: 25, horizon: 16, rounds: 16, lossRate: 0.35},
		{seed: 6, n: 33, extraEdge: 20, horizon: 14, rounds: 18, skewed: 10},
		{seed: 7, n: 50, extraEdge: 40, horizon: 22, rounds: 24, nodeFails: 10, linkFails: 8, lossRate: 0.2, skewed: 12},
		{seed: 8, n: 3, horizon: 30, rounds: 5, nodeFails: 3}, // budget exhausted, final-check deaths
		{seed: 9, n: 64, extraEdge: 200, horizon: 10, rounds: 12, lossRate: 0.5},
		{seed: 10, n: 45, extraEdge: 60, horizon: 20, rounds: 22, lossRate: 0.3, parts: 3},
		{seed: 12, n: 50, extraEdge: 40, horizon: 22, rounds: 24, nodeFails: 6, linkFails: 6, lossRate: 0.2, skewed: 8, parts: 2},
	}
	for _, s := range cases {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s.seed), func(t *testing.T) {
			checkEquivalence(t, s, equivalenceWorkers())
		})
	}
}

// TestEngineEquivalenceZeroRounds pins the maxRounds=0 edge: no rounds run,
// no events fire, and quiescence is judged by the final check alone.
func TestEngineEquivalenceZeroRounds(t *testing.T) {
	s := scenario{seed: 11, n: 8, extraEdge: 4, horizon: 5, rounds: 0, nodeFails: 4}
	checkEquivalence(t, s, equivalenceWorkers())
}

// TestEngineEquivalenceImmediateQuiescence pins the quiesce-at-round-1
// path: failure events scheduled for round 1 still appear in the trace even
// though no round executes.
func TestEngineEquivalenceImmediateQuiescence(t *testing.T) {
	build := func(cfg Config) *Engine {
		g := graph.New()
		_ = g.AddEdge(0, 1)
		_ = g.AddEdge(1, 2)
		progs := map[graph.NodeID]Program{
			0: &chaosProg{rng: rand.New(rand.NewSource(1)), horizon: 0},
			1: &chaosProg{rng: rand.New(rand.NewSource(2)), horizon: 0},
			2: &chaosProg{rng: rand.New(rand.NewSource(3)), horizon: 0},
		}
		cfg.Failures = []NodeFailure{{Node: 2, Round: 1}}
		cfg.LinkFailures = []LinkFailure{{A: 0, B: 1, Round: 1}}
		eng, err := NewEngine(g, progs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// chaosProg with horizon 0 starts Done (cur=0 >= 0), so round 1
	// quiesces immediately — after its failure events.
	wantRes, wantTrace := runTraced(build, 0, 10, true)
	if !wantRes.Quiesced || wantRes.Rounds != 0 {
		t.Fatalf("scenario not quiescing as intended: %+v", wantRes)
	}
	if len(wantTrace) == 0 {
		t.Fatal("expected round-1 failure events in the trace")
	}
	for _, w := range equivalenceWorkers() {
		gotRes, gotTrace := runTraced(build, w, 10, false)
		if !reflect.DeepEqual(gotRes, wantRes) || !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("workers=%d diverges: %+v vs %+v", w, gotRes, wantRes)
		}
	}
}

// TestEngineWorkersExceedNodes forces more shards than nodes: excess
// workers get empty ranges and the run must still match.
func TestEngineWorkersExceedNodes(t *testing.T) {
	s := scenario{seed: 21, n: 3, horizon: 6, rounds: 8}
	checkEquivalence(t, s, []int{7, 100})
}

// FuzzEngineEquivalence drives random graphs, programs, loss seeds,
// failure schedules and partition windows through both engines and fails on any divergence in
// Result or serialized trace — the fuzzing arm of the determinism proof.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(12), uint8(0), uint8(0))
	f.Add(int64(42), uint8(30), uint8(20), uint8(3), uint8(9))
	f.Add(int64(7), uint8(50), uint8(8), uint8(7), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, roundsRaw, failRaw, lossRaw uint8) {
		s := scenario{
			seed:      seed,
			n:         int(nRaw%40) + 2,
			extraEdge: int(nRaw),
			horizon:   int(roundsRaw%30) + 1,
			rounds:    int(roundsRaw%30) + 3,
			lossRate:  float64(lossRaw%100) / 100 * 0.9,
			nodeFails: int(failRaw % 8),
			linkFails: int(failRaw % 5),
			skewed:    int(failRaw % 7),
			parts:     int(failRaw % 3),
		}
		checkEquivalence(t, s, []int{1, 2, 4})
	})
}

// crashHost is the in-process host with one node that stops answering its
// act barrier from round crashAt on, as a remote node that died would.
type crashHost struct {
	*programHost
	victim, crashAt int
}

func (h *crashHost) Act(b *Batch) {
	lo, hi := b.Range()
	for i := lo; i < hi; i++ {
		switch {
		case !b.Live(i):
		case i == h.victim && b.round >= h.crashAt:
			b.Crash(i)
		default:
			b.Put(i, h.progs[i].Act(b.LocalRound(i)))
		}
	}
}

// sleepFrom relays to an inner program until round from, then sleeps.
type sleepFrom struct {
	Program
	from int
}

func (p *sleepFrom) Act(round int) Action {
	if round >= p.from {
		return SleepAction()
	}
	return p.Program.Act(round)
}

// TestHostCrashIsScheduledFailure pins the NodeHost crash contract: a node
// a host reports crashed in round r sleeps through r and dies at the start
// of r+1 — byte-identical to a sleeping program plus a scheduled failure
// at r+1, at every worker count.
func TestHostCrashIsScheduledFailure(t *testing.T) {
	s := scenario{seed: 13, n: 30, extraEdge: 25, horizon: 18, rounds: 20, lossRate: 0.2, linkFails: 3}
	const victim, crashAt = 11, 6
	twin := func(cfg Config) *Engine {
		id := graph.NodeID(victim) // chaos scenarios number their nodes 0..n-1
		cfg.Failures = []NodeFailure{{Node: id, Round: crashAt + 1}}
		eng := s.build(t, cfg)
		eng.programs[id] = &sleepFrom{Program: eng.programs[id], from: crashAt}
		return eng
	}
	wantRes, wantTrace := runTraced(twin, 0, s.rounds, true)
	crashing := func(cfg Config) *Engine {
		eng := s.build(t, cfg)
		eng.host = &crashHost{programHost: eng.host.(*programHost), victim: victim, crashAt: crashAt}
		return eng
	}
	for _, w := range equivalenceWorkers() {
		gotRes, gotTrace := runTraced(crashing, w, s.rounds, false)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("workers=%d: result diverges\n got %+v\nwant %+v", w, gotRes, wantRes)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("workers=%d: trace diverges\n got:\n%s\nwant:\n%s", w, gotTrace, wantTrace)
		}
	}
}
