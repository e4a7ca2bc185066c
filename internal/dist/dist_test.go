package dist_test

import (
	"io"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynsens/internal/dist"
	"dynsens/internal/graph"
	"dynsens/internal/netio/frame"
	"dynsens/internal/radio"
	"dynsens/internal/radio/rounds"
)

// tdmaProg is a deterministic test program: the source starts with the
// payload; every holder transmits in its slots (round r is node id's slot
// when (r-1)%mod == id%mod) until it has spent its quota, and listens
// otherwise. mod < number of nodes makes holders share slots and collide —
// the model's central hazard — while mod == number of nodes is a clean TDMA
// round-robin.
type tdmaProg struct {
	id    graph.NodeID
	mod   int
	quota int
	have  bool
	sent  int
}

func newTDMA(id graph.NodeID, mod, quota int, source bool) *tdmaProg {
	return &tdmaProg{id: id, mod: mod, quota: quota, have: source}
}

func (p *tdmaProg) Act(round int) radio.Action {
	if p.have && p.sent < p.quota && (round-1)%p.mod == int(p.id)%p.mod {
		p.sent++
		return radio.TransmitOn(0, radio.Message{Seq: 1, Src: 0, Slot: round, Value: int64(p.id)})
	}
	return radio.ListenOn(0)
}

func (p *tdmaProg) Deliver(round int, msg radio.Message) { p.have = true }

func (p *tdmaProg) Done() bool { return p.have && p.sent >= p.quota }

// hangProg relays to an inner program until round hangAt, where Act blocks
// forever — a node that stops answering its round barrier.
type hangProg struct {
	inner  radio.Program
	hangAt int
}

func (p *hangProg) Act(round int) radio.Action {
	if round >= p.hangAt {
		select {} // wedge the node host
	}
	return p.inner.Act(round)
}

func (p *hangProg) Deliver(round int, msg radio.Message) { p.inner.Deliver(round, msg) }
func (p *hangProg) Done() bool                           { return p.inner.Done() }

// sleepFromProg relays to an inner program until round sleepAt, then sleeps
// forever — the kernel-side twin of a node whose host crashed mid-round:
// the crashed node contributes a Sleep to its final round.
type sleepFromProg struct {
	inner   radio.Program
	sleepAt int
}

func (p *sleepFromProg) Act(round int) radio.Action {
	if round >= p.sleepAt {
		return radio.SleepAction()
	}
	return p.inner.Act(round)
}

func (p *sleepFromProg) Deliver(round int, msg radio.Message) { p.inner.Deliver(round, msg) }
func (p *sleepFromProg) Done() bool                           { return p.inner.Done() }

// listenProg listens forever and is never done; it records deliveries.
type listenProg struct {
	got []int // rounds a delivery arrived
}

func (p *listenProg) Act(round int) radio.Action           { return radio.ListenOn(0) }
func (p *listenProg) Deliver(round int, msg radio.Message) { p.got = append(p.got, round) }
func (p *listenProg) Done() bool                           { return false }

// lineGraph builds the path 0-1-...-(n-1).
func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// collect captures the engine's trace stream.
type collect struct{ events []radio.Event }

func (c *collect) hook(evs []radio.Event) { c.events = append(c.events, evs...) }

// scenario configures one equivalence case; apply runs the same schedule
// into the kernel engine and the distributed coordinator.
type scenario struct {
	n         int
	extra     [][2]graph.NodeID // edges beyond the line
	mod       int
	quota     int
	maxRounds int
	lossRate  float64
	lossSeed  int64
	nodeFail  map[graph.NodeID]int
	linkFail  map[[2]graph.NodeID]int
	skew      map[graph.NodeID]int
}

func (sc *scenario) graph(t *testing.T) *graph.Graph {
	g := lineGraph(t, sc.n)
	for _, e := range sc.extra {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func (sc *scenario) programs() map[graph.NodeID]radio.Program {
	progs := make(map[graph.NodeID]radio.Program, sc.n)
	for i := 0; i < sc.n; i++ {
		id := graph.NodeID(i)
		progs[id] = newTDMA(id, sc.mod, sc.quota, id == 0)
	}
	return progs
}

func (sc *scenario) runKernel(t *testing.T, progs map[graph.NodeID]radio.Program) (radio.Result, *collect) {
	t.Helper()
	eng, err := radio.NewEngine(sc.graph(t), progs)
	if err != nil {
		t.Fatal(err)
	}
	var c collect
	eng.SetTraceBatch(c.hook)
	for id, r := range sc.nodeFail {
		eng.FailNodeAt(id, r)
	}
	for lk, r := range sc.linkFail {
		eng.FailLinkAt(lk[0], lk[1], r)
	}
	for id, off := range sc.skew {
		eng.SetClockSkew(id, off)
	}
	if sc.lossRate > 0 {
		if err := eng.SetLoss(sc.lossRate, sc.lossSeed); err != nil {
			t.Fatal(err)
		}
	}
	return eng.Run(sc.maxRounds), &c
}

func (sc *scenario) runDist(t *testing.T, progs map[graph.NodeID]radio.Program) (radio.Result, *collect) {
	t.Helper()
	coord, err := dist.NewCoordinator(sc.graph(t), dist.NewLocalFleet(progs))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var c collect
	coord.SetTraceBatch(c.hook)
	for id, r := range sc.nodeFail {
		coord.FailNodeAt(id, r)
	}
	for lk, r := range sc.linkFail {
		coord.FailLinkAt(lk[0], lk[1], r)
	}
	for id, off := range sc.skew {
		coord.SetClockSkew(id, off)
	}
	if sc.lossRate > 0 {
		if err := coord.SetLoss(sc.lossRate, sc.lossSeed); err != nil {
			t.Fatal(err)
		}
	}
	res := coord.Run(sc.maxRounds)
	if err := coord.Err(); err != nil {
		t.Fatalf("coordinator absorbed a fault on an undisturbed run: %v", err)
	}
	return res, &c
}

// assertEqualRuns is the equivalence oracle: the distributed run must match
// the kernel run event for event (Seq included) and in its Result.
func assertEqualRuns(t *testing.T, sc *scenario) {
	t.Helper()
	kRes, kTrace := sc.runKernel(t, sc.programs())
	dRes, dTrace := sc.runDist(t, sc.programs())
	if !reflect.DeepEqual(kRes, dRes) {
		t.Errorf("results diverge:\nkernel: %+v\ndist:   %+v", kRes, dRes)
	}
	if len(kTrace.events) != len(dTrace.events) {
		t.Fatalf("event counts diverge: kernel %d, dist %d", len(kTrace.events), len(dTrace.events))
	}
	for i := range kTrace.events {
		if kTrace.events[i] != dTrace.events[i] {
			t.Fatalf("event %d diverges:\nkernel: %+v\ndist:   %+v", i, kTrace.events[i], dTrace.events[i])
		}
	}
}

func TestDistMatchesKernelTDMA(t *testing.T) {
	// Clean round-robin: quiesces before the round budget.
	assertEqualRuns(t, &scenario{n: 5, mod: 5, quota: 2, maxRounds: 40})
}

func TestDistMatchesKernelCollisions(t *testing.T) {
	// Shared slots (mod 2 on a 6-node line with chords) force collisions.
	assertEqualRuns(t, &scenario{
		n:         6,
		extra:     [][2]graph.NodeID{{0, 2}, {1, 4}, {3, 5}},
		mod:       2,
		quota:     3,
		maxRounds: 25,
	})
}

func TestDistMatchesKernelFaultsLossSkew(t *testing.T) {
	// The whole engine surface at once: scheduled node death, a link cut,
	// clock skew, and the counter-stream loss model.
	assertEqualRuns(t, &scenario{
		n:         6,
		extra:     [][2]graph.NodeID{{1, 3}, {2, 5}},
		mod:       3,
		quota:     3,
		maxRounds: 30,
		lossRate:  0.3,
		lossSeed:  42,
		nodeFail:  map[graph.NodeID]int{5: 7},
		linkFail:  map[[2]graph.NodeID]int{{1, 2}: 5},
		skew:      map[graph.NodeID]int{2: 1, 4: -1},
	})
}

func TestBarrierTimeoutMatchesKernelCrash(t *testing.T) {
	// A node that never answers its round-3 act barrier sleeps through
	// round 3 and dies at round 4 — byte-equal to a kernel run where the
	// same node's program sleeps from round 3 and FailNodeAt(node, 4).
	const hangAt, victim = 3, graph.NodeID(2)
	sc := &scenario{n: 4, mod: 4, quota: 2, maxRounds: 12}

	kProgs := sc.programs()
	kProgs[victim] = &sleepFromProg{inner: kProgs[victim], sleepAt: hangAt}
	kSc := *sc
	kSc.nodeFail = map[graph.NodeID]int{victim: hangAt + 1}
	kRes, kTrace := kSc.runKernel(t, kProgs)

	dProgs := sc.programs()
	dProgs[victim] = &hangProg{inner: dProgs[victim], hangAt: hangAt}
	coord, err := dist.NewCoordinator(sc.graph(t), dist.NewLocalFleet(dProgs))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetRoundTimeout(200 * time.Millisecond)
	var c collect
	coord.SetTraceBatch(c.hook)
	dRes := coord.Run(sc.maxRounds)
	if coord.Err() == nil {
		t.Fatal("coordinator did not record the barrier timeout")
	}
	if !reflect.DeepEqual(kRes, dRes) {
		t.Errorf("results diverge:\nkernel: %+v\ndist:   %+v", kRes, dRes)
	}
	if !reflect.DeepEqual(kTrace.events, c.events) {
		t.Fatalf("crash trace diverges from kernel failure-schedule twin:\nkernel: %+v\ndist:   %+v", kTrace.events, c.events)
	}
}

// TestDistMatchesKernelAbsentNodeFail pins FailNodeAt on a node the graph
// does not have: the kernel traces the death and touches no node, and the
// distributed run must do the same rather than mistake it for node 0.
func TestDistMatchesKernelAbsentNodeFail(t *testing.T) {
	assertEqualRuns(t, &scenario{n: 4, mod: 4, quota: 2, maxRounds: 20, nodeFail: map[graph.NodeID]int{99: 3}})
}

// TestCrashErrNamesTheFault pins Err to the fault itself: a node that
// missed its act barrier sits out the finish barrier too, rather than being
// re-crashed by a send on its dropped connection.
func TestCrashErrNamesTheFault(t *testing.T) {
	sc := &scenario{n: 4, mod: 4, quota: 2, maxRounds: 8}
	progs := sc.programs()
	progs[1] = &hangProg{inner: progs[1], hangAt: 2}
	coord, err := dist.NewCoordinator(sc.graph(t), dist.NewLocalFleet(progs))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetRoundTimeout(100 * time.Millisecond)
	coord.Run(sc.maxRounds)
	if err := coord.Err(); err == nil || !strings.Contains(err.Error(), "no answer within") {
		t.Fatalf("Err = %v, want the barrier timeout", err)
	}
}

func TestNemesisPartitionHeals(t *testing.T) {
	// 0-1-2 line; node 0 transmits every round. A partition isolates node 0
	// during rounds 2-3: node 1 records losses in the window and deliveries
	// on both sides of it — on either runtime, since partitions are the
	// kernel's.
	for _, rt := range []string{"kernel", "dist"} {
		t.Run(rt, func(t *testing.T) {
			g := lineGraph(t, 3)
			mid, far := &listenProg{}, &listenProg{}
			progs := map[graph.NodeID]radio.Program{
				0: newTDMA(0, 1, 6, true),
				1: mid,
				2: far,
			}
			var eng *radio.Engine
			var coord *dist.Coordinator
			var err error
			if rt == "dist" {
				if coord, err = dist.NewCoordinator(g, dist.NewLocalFleet(progs)); err == nil {
					defer coord.Close()
					eng = coord.Engine
				}
			} else {
				eng, err = radio.NewEngine(g, progs)
			}
			if err != nil {
				t.Fatal(err)
			}
			var c collect
			eng.SetTraceBatch(c.hook)
			eng.SetPartitions([]rounds.Partition{{From: 2, To: 3, Side: []graph.NodeID{0}}})
			res := eng.Run(6)
			if coord != nil {
				if err := coord.Err(); err != nil {
					t.Fatal(err)
				}
			}
			if res.Rounds != 6 || res.Quiesced {
				t.Fatalf("unexpected result %+v", res)
			}
			wantDeliver := []int{1, 4, 5, 6}
			if !reflect.DeepEqual(mid.got, wantDeliver) {
				t.Errorf("node 1 deliveries in rounds %v, want %v", mid.got, wantDeliver)
			}
			var lossRounds []int
			for _, ev := range c.events {
				if ev.Kind == radio.EvLoss {
					if ev.Node != 1 || ev.Peer != 0 {
						t.Errorf("unexpected loss pair %+v", ev)
					}
					lossRounds = append(lossRounds, ev.Round)
				}
			}
			if want := []int{2, 3}; !reflect.DeepEqual(lossRounds, want) {
				t.Errorf("partition losses in rounds %v, want %v", lossRounds, want)
			}
			if res.Losses != 2 || res.Deliveries != len(wantDeliver) {
				t.Errorf("counters diverge: %+v", res)
			}
		})
	}
}

func TestTCPFleetMatchesKernel(t *testing.T) {
	sc := &scenario{n: 4, mod: 4, quota: 2, maxRounds: 20}
	kRes, kTrace := sc.runKernel(t, sc.programs())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	progs := sc.programs()
	for id, prog := range progs {
		id, prog := id, prog
		go func() {
			if err := dist.DialNode(addr, id, prog); err != nil {
				t.Errorf("node %d: %v", id, err)
			}
		}()
	}
	coord, err := dist.NewCoordinator(sc.graph(t), dist.NewTCPFleet(ln))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var c collect
	coord.SetTraceBatch(c.hook)
	dRes := coord.Run(sc.maxRounds)
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kRes, dRes) {
		t.Errorf("results diverge:\nkernel: %+v\ndist:   %+v", kRes, dRes)
	}
	if !reflect.DeepEqual(kTrace.events, c.events) {
		t.Fatalf("TCP trace diverges from kernel trace")
	}
}

// serveLiar is a node host that answers its act barriers from round badAt
// on with the wrong round number — a protocol violation.
func serveLiar(addr string, id graph.NodeID, prog radio.Program, badAt int) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	enc, dec := frame.NewEncoder(conn), frame.NewDecoder(conn)
	_ = enc.Encode(&frame.Frame{Kind: frame.KindHello, Node: id, Done: prog.Done()})
	var f frame.Frame
	for dec.Decode(&f) == nil {
		switch f.Kind {
		case frame.KindAct:
			round := f.Round
			if round >= badAt {
				round++
			}
			_ = enc.Encode(&frame.Frame{Kind: frame.KindAction, Round: round, Action: prog.Act(f.Round)})
		case frame.KindFinish:
			if f.HasMsg {
				prog.Deliver(f.Round, f.Msg)
			}
			_ = enc.Encode(&frame.Frame{Kind: frame.KindStatus, Round: f.Round, Done: prog.Done()})
		default:
			return
		}
	}
}

func TestProtocolViolationMatchesKernelCrash(t *testing.T) {
	// A node that answers its round-3 act barrier for the wrong round is
	// absorbed like any other fault — it sleeps through round 3 and dies at
	// round 4 — with no round timeout at all.
	const badAt, victim = 3, graph.NodeID(2)
	sc := &scenario{n: 4, mod: 4, quota: 2, maxRounds: 12}

	kProgs := sc.programs()
	kProgs[victim] = &sleepFromProg{inner: kProgs[victim], sleepAt: badAt}
	kSc := *sc
	kSc.nodeFail = map[graph.NodeID]int{victim: badAt + 1}
	kRes, kTrace := kSc.runKernel(t, kProgs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	for id, prog := range sc.programs() {
		id, prog := id, prog
		if id == victim {
			go serveLiar(addr, id, prog, badAt)
			continue
		}
		go func() { _ = dist.DialNode(addr, id, prog) }()
	}
	coord, err := dist.NewCoordinator(sc.graph(t), dist.NewTCPFleet(ln))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetRoundTimeout(0)
	var c collect
	coord.SetTraceBatch(c.hook)
	dRes := coord.Run(sc.maxRounds)
	if err := coord.Err(); err == nil || !strings.Contains(err.Error(), "awaiting action") {
		t.Fatalf("Err = %v, want the act-barrier protocol violation", err)
	}
	if !reflect.DeepEqual(kRes, dRes) {
		t.Errorf("results diverge:\nkernel: %+v\ndist:   %+v", kRes, dRes)
	}
	if !reflect.DeepEqual(kTrace.events, c.events) {
		t.Fatalf("violation trace diverges from kernel failure-schedule twin:\nkernel: %+v\ndist:   %+v", kTrace.events, c.events)
	}
}

// Process-transport tests: the test binary re-execs itself as the node
// process (TestMain short-circuits into nodeHelperMain when the marker env
// var is set), so cmd-building stays inside the test.

const (
	helperEnv   = "DIST_NODE_HELPER"
	helperID    = "DIST_NODE_ID"
	helperDieAt = "DIST_NODE_DIE_AT"
	helperN     = "DIST_NODE_N"
	helperMod   = "DIST_NODE_MOD"
	helperQuota = "DIST_NODE_QUOTA"
)

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		nodeHelperMain()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// exitProg relays to an inner program until round dieAt, where the whole
// node process exits — death mid-round.
type exitProg struct {
	inner radio.Program
	dieAt int
}

func (p *exitProg) Act(round int) radio.Action {
	if p.dieAt > 0 && round >= p.dieAt {
		os.Exit(3)
	}
	return p.inner.Act(round)
}

func (p *exitProg) Deliver(round int, msg radio.Message) { p.inner.Deliver(round, msg) }
func (p *exitProg) Done() bool                           { return p.inner.Done() }

func nodeHelperMain() {
	atoi := func(k string) int {
		v, err := strconv.Atoi(os.Getenv(k))
		if err != nil {
			os.Exit(2)
		}
		return v
	}
	id := graph.NodeID(atoi(helperID))
	var prog radio.Program = newTDMA(id, atoi(helperMod), atoi(helperQuota), id == 0)
	if dieAt := atoi(helperDieAt); dieAt > 0 {
		prog = &exitProg{inner: prog, dieAt: dieAt}
	}
	stdio := struct {
		io.Reader
		io.Writer
	}{os.Stdin, os.Stdout}
	if err := dist.ServeNode(stdio, id, prog); err != nil {
		os.Exit(1)
	}
}

func procFleet(sc *scenario, dieAt map[graph.NodeID]int) *dist.ProcFleet {
	return &dist.ProcFleet{Command: func(id graph.NodeID) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			helperEnv+"=1",
			helperID+"="+strconv.Itoa(int(id)),
			helperDieAt+"="+strconv.Itoa(dieAt[id]),
			helperN+"="+strconv.Itoa(sc.n),
			helperMod+"="+strconv.Itoa(sc.mod),
			helperQuota+"="+strconv.Itoa(sc.quota),
		)
		cmd.Stderr = io.Discard
		return cmd
	}}
}

func TestProcFleetMatchesKernel(t *testing.T) {
	sc := &scenario{n: 3, mod: 3, quota: 2, maxRounds: 15}
	kRes, kTrace := sc.runKernel(t, sc.programs())

	coord, err := dist.NewCoordinator(sc.graph(t), procFleet(sc, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Out-of-process nodes keep their reception state in the children;
	// mirror copies on the coordinator side must see the exact same
	// Deliver(round, msg) calls (broadcast's metrics fill depends on it).
	mirror := make(map[graph.NodeID]*listenProg, sc.n)
	progs := make(map[graph.NodeID]radio.Program, sc.n)
	for i := 0; i < sc.n; i++ {
		lp := &listenProg{}
		mirror[graph.NodeID(i)] = lp
		progs[graph.NodeID(i)] = lp
	}
	coord.MirrorDeliveries(progs)
	var c collect
	coord.SetTraceBatch(c.hook)
	dRes := coord.Run(sc.maxRounds)
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kRes, dRes) {
		t.Errorf("results diverge:\nkernel: %+v\ndist:   %+v", kRes, dRes)
	}
	if !reflect.DeepEqual(kTrace.events, c.events) {
		t.Fatalf("process-transport trace diverges from kernel trace")
	}
	want := make(map[graph.NodeID][]int)
	for _, ev := range kTrace.events {
		if ev.Kind == radio.EvDeliver {
			want[ev.Node] = append(want[ev.Node], ev.Round)
		}
	}
	for id, lp := range mirror {
		if !reflect.DeepEqual(lp.got, want[id]) {
			t.Errorf("mirror of node %d saw deliveries at rounds %v, kernel delivered at %v", id, lp.got, want[id])
		}
	}
}

func TestProcFleetNodeDeathMidRound(t *testing.T) {
	// Node 1's process exits inside its round-3 act barrier. The
	// coordinator must absorb it — sleep for round 3, EvNodeFail at round
	// 4 — and finish the run, byte-equal to the kernel twin.
	const dieAt, victim = 3, graph.NodeID(1)
	sc := &scenario{n: 3, mod: 3, quota: 2, maxRounds: 12}

	kProgs := sc.programs()
	kProgs[victim] = &sleepFromProg{inner: kProgs[victim], sleepAt: dieAt}
	kSc := *sc
	kSc.nodeFail = map[graph.NodeID]int{victim: dieAt + 1}
	kRes, kTrace := kSc.runKernel(t, kProgs)

	coord, err := dist.NewCoordinator(sc.graph(t), procFleet(sc, map[graph.NodeID]int{victim: dieAt}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetRoundTimeout(5 * time.Second)
	var c collect
	coord.SetTraceBatch(c.hook)
	dRes := coord.Run(sc.maxRounds)
	if coord.Err() == nil {
		t.Fatal("coordinator did not record the process death")
	}
	if !reflect.DeepEqual(kRes, dRes) {
		t.Errorf("results diverge:\nkernel: %+v\ndist:   %+v", kRes, dRes)
	}
	if !reflect.DeepEqual(kTrace.events, c.events) {
		t.Fatalf("death trace diverges from kernel failure-schedule twin:\nkernel: %+v\ndist:   %+v", kTrace.events, c.events)
	}
}
