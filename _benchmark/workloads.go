package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/flight"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/netio"
	"dynsens/internal/radio"
	"dynsens/internal/scenario"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

// env is what every workload's set-up and ops share: the seed, the network
// size, and the per-layer counters.
type env struct {
	seed  int64
	n     int
	count *counters
}

// counters accumulates the per-layer counts the traced run reports beside
// its span times. kernel is attached to kernel runs only when traced.
type counters struct {
	kernel      *radio.Perf
	buildAllocs int64 // heap objects allocated by CNet construction
	flightBytes int64 // bytes of flight recordings written
	reinserted  int64 // nodes re-inserted by node-move-out
	recalcs     int64 // slot recalculations by join and leave repair
	distRounds  int64 // rounds run on the dist runtime
}

// runner executes the timed ops of one set-up workload.
type runner interface {
	// op runs timed op i; tr is nil in the untraced run.
	op(i int, tr *tracer) outcome
	// fold adds the simulated outcome o of op i to the digest.
	fold(d *digest, i int, o outcome)
	// finish verifies the network once the ops are done.
	finish() *failure
	// period is the op count after which the op mix repeats exactly; a
	// run stops on a multiple of it.
	period() int
}

// outcome is what one op simulated, and whether it failed.
type outcome struct {
	nodeRounds int64 // live nodes × rounds executed
	awake      int64 // Σ awake node-rounds of the op's protocol runs
	stats      []int64
	fail       *failure
}

// workloadDef names a workload, its default network size and its set-up.
// simThroughput marks the workloads whose ops are all protocol runs, where
// node_rounds_per_s (simulated live nodes × rounds per host second) is
// printed beside the gated metrics.
type workloadDef struct {
	name          string
	n             int
	setup         func(e env, tr *tracer) (runner, error)
	simThroughput bool
}

// The workloads on a standing network spread their ops over several
// networks ("lanes"), each deployed from its own seed: one network's
// structure moved op time by ±10% from seed to seed. Four n=2000 networks
// hold the mean steady; dist's n=250 networks need eight.
var workloads = []workloadDef{
	{"construct", 2000, setupConstruct, false},
	{"broadcast", 2000, setupLanes(4, setupBroadcast), true},
	{"churn", 2000, setupLanes(4, setupChurn), false},
	{"dist", 250, setupLanes(8, setupDist), true},
}

// lanes rotates ops over independent networks: op i runs as op i/len on
// lane i%len.
type lanes []runner

func setupLanes(n int, setup func(env, *tracer) (runner, error)) func(env, *tracer) (runner, error) {
	return func(e env, tr *tracer) (runner, error) {
		ls := make(lanes, n)
		for k := range ls {
			le := e
			le.seed = e.seed*100 + int64(k)
			var err error
			if ls[k], err = setup(le, tr); err != nil {
				return nil, fmt.Errorf("lane %d: %w", k, err)
			}
		}
		return ls, nil
	}
}

func (ls lanes) op(i int, tr *tracer) outcome { return ls[i%len(ls)].op(i/len(ls), tr) }

func (ls lanes) fold(d *digest, i int, o outcome) { ls[i%len(ls)].fold(d, i/len(ls), o) }

func (ls lanes) period() int { return len(ls) * ls[0].period() }

func (ls lanes) finish() *failure {
	for _, l := range ls {
		if f := l.finish(); f != nil {
			return f
		}
	}
	return nil
}

// side is the region side in 100 m units at the paper's density of 500
// nodes per 10×10 units.
func side(n int) int { return max(1, int(math.Round(math.Sqrt(float64(n)/5)))) }

// bounds captures the structural quantities the paper's bounds are stated
// in, for runs with k channels from source.
func bounds(slots *timeslot.Assignment, source graph.NodeID, k int) scenario.Bounds {
	c := slots.Net()
	return scenario.Bounds{
		K: k, DeltaU: slots.Max(timeslot.U), SmallDelta: slots.SmallDelta(), Delta: slots.Delta(),
		H: c.Tree().Height(), HBT: c.Backbone().Height(), Heads: len(c.Heads()),
		Pre: c.Tree().Depth(source),
	}
}

// bound resolves a paper-bound symbol (see internal/scenario).
func bound(b scenario.Bounds, sym string) int {
	v, _, err := b.Value(sym)
	if err != nil {
		panic(err) // the symbols passed are the package's own constants
	}
	return v
}

// run plans and runs one protocol run under the spans the traced run
// records: planName around plan building, broadcast.run around Plan.Run,
// and the kernel's wall time (from radio.Perf) as its child.
func run(e env, tr *tracer, planName string, g *graph.Graph, o broadcast.Options,
	plan func() (*broadcast.Plan, error)) (broadcast.Metrics, error) {
	sp := tr.begin(planName)
	p, err := plan()
	tr.end(sp)
	if err != nil {
		return broadcast.Metrics{}, err
	}
	return runPlan(e, tr, "broadcast.run", p, g, o)
}

func runPlan(e env, tr *tracer, name string, p *broadcast.Plan, g *graph.Graph, o broadcast.Options) (broadcast.Metrics, error) {
	sp := tr.begin(name)
	var wall0 int64
	if tr != nil && o.Runtime == "" {
		o.Perf = e.count.kernel
		wall0 = o.Perf.Snapshot().WallNs
	}
	m, err := p.Run(g, o)
	if tr != nil {
		end := tr.now()
		if o.Perf != nil {
			wall := o.Perf.Snapshot().WallNs - wall0
			tr.add(sp, "radio.kernel", end-wall, end)
		}
		tr.endAt(sp, end)
	}
	return m, err
}

func awakeSum(m broadcast.Metrics) int64 {
	var s int64
	for _, a := range m.Awake {
		s += int64(a)
	}
	return s
}

// construct: one op deploys, builds and verifies a fresh network, as
// `nettool scenario verify` and every experiment point do.
type construct struct {
	e      env
	side   int
	buf    bytes.Buffer
	last   *core.Network
	allocs []metrics.Sample
}

func setupConstruct(e env, tr *tracer) (runner, error) {
	c := &construct{e: e, side: side(e.n), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
	// Warm-up: two full builds, from deployment seeds the timed ops never use.
	for i := -2; i < 0; i++ {
		if o := c.op(i, tr); o.fail != nil {
			return nil, o.fail
		}
	}
	return c, nil
}

func (c *construct) allocCount() uint64 {
	metrics.Read(c.allocs)
	return c.allocs[0].Value.Uint64()
}

func (c *construct) op(i int, tr *tracer) outcome {
	seed := c.e.seed*1_000_003 + int64(i)
	rng := rand.New(rand.NewSource(seed))
	n := c.e.n
	sp := tr.begin("workload.deploy")
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, c.side, n))
	tr.end(sp)
	if err != nil {
		return outcome{fail: fail("workload", failError, err)}
	}
	sp = tr.begin("geom.udg")
	g := d.Graph()
	tr.end(sp)

	source := graph.NodeID(rng.Intn(n))
	c.buf.Reset()
	fw := flight.NewWriter(&c.buf)
	fw.WriteHeader(flight.Header{Seed: seed, N: n, Side: c.side, Channels: 1, Source: source, Protocol: "ICFF"})

	// core.Build is cnet.BuildFromGraphObserved then timeslot.New. The
	// traced run splits it at the last construction move-in the delta hook
	// reports: before it is CNet construction, after it slot assignment.
	var moveIns int
	var lastMoveIn int64
	var allocs0, allocs1 uint64
	hook := func(dl cnet.Delta) { fw.WriteDelta(flightDelta(dl)) }
	if tr != nil {
		allocs0 = c.allocCount()
		hook = func(dl cnet.Delta) {
			fw.WriteDelta(flightDelta(dl))
			if moveIns++; moveIns == n-1 {
				lastMoveIn = tr.now()
				allocs1 = c.allocCount()
			}
		}
	}
	sp = tr.begin("core.build")
	net, err := core.Build(g, core.Config{DeltaHook: hook})
	if tr != nil {
		end := tr.now()
		tr.add(sp, "cnet.build", tr.spans[sp].start, lastMoveIn)
		tr.add(sp, "timeslot.assign", lastMoveIn, end)
		tr.endAt(sp, end)
		c.e.count.buildAllocs += int64(allocs1 - allocs0)
	}
	if err != nil {
		return outcome{fail: fail("cnet", failError, err)}
	}
	c.last = net

	sp = tr.begin("netio.record_topology")
	netio.RecordTopology(fw, net)
	tr.end(sp)
	m, err := run(c.e, tr, "broadcast.plan.icff", g, broadcast.Options{Flight: fw}, func() (*broadcast.Plan, error) {
		return broadcast.ICFFPlan(net.Slots(), source, 1, nil, nil)
	})
	if err != nil {
		return outcome{fail: fail("broadcast", failError, err)}
	}
	out := outcome{nodeRounds: int64(n) * int64(m.Rounds), awake: awakeSum(m)}
	out.stats = []int64{int64(net.Size()), int64(len(net.CNet().Heads()))}
	if out.fail = checkRun(m, bound(bounds(net.Slots(), source, 1), scenario.SymTheorem1), true); out.fail != nil {
		return out
	}
	out.stats = append(out.stats, int64(m.Rounds), int64(m.Received), int64(m.Audience),
		int64(m.Transmissions), int64(m.Collisions), int64(m.MaxAwake))

	sp = tr.begin("flight.close")
	err = fw.Close()
	tr.end(sp)
	if err != nil {
		out.fail = fail("flight", failError, err)
		return out
	}
	c.e.count.flightBytes += int64(c.buf.Len())
	sp = tr.begin("flight.decode")
	rec, err := flight.DecodeBytes(c.buf.Bytes())
	tr.end(sp)
	if err != nil {
		out.fail = fail("flight", failError, err)
		return out
	}
	sp = tr.begin("flight.verify")
	rep := flight.Verify(rec)
	tr.end(sp)
	out.fail = checkFlight(rep)
	out.stats = append(out.stats, int64(len(rec.Events)), int64(c.buf.Len()))
	return out
}

func (c *construct) fold(d *digest, _ int, o outcome) { d.fold(o.stats...) }

func (c *construct) period() int { return 1 }

func (c *construct) finish() *failure {
	if err := c.last.Verify(); err != nil {
		return fail("core", failNetwork, err)
	}
	return nil
}

// flightDelta converts a CNet topology delta into its recorded form.
func flightDelta(d cnet.Delta) flight.Delta {
	kind := flight.DeltaMoveIn
	switch d.Kind {
	case cnet.DeltaMoveOut:
		kind = flight.DeltaMoveOut
	case cnet.DeltaCrash:
		kind = flight.DeltaCrash
	}
	return flight.Delta{
		Kind: kind, Node: d.Node, Peer: flight.NoParent,
		Reinserted: d.Reinserted, Dropped: d.Dropped, RootChanged: d.RootChanged,
	}
}

// buildNetwork deploys and builds the static network of the broadcast and
// dist workloads.
func buildNetwork(e env, tr *tracer) (*core.Network, error) {
	sp := tr.begin("workload.deploy")
	d, err := workload.IncrementalConnected(workload.PaperConfig(e.seed, side(e.n), e.n))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("geom.udg")
	g := d.Graph()
	tr.end(sp)
	sp = tr.begin("core.build")
	net, err := core.Build(g, core.Config{})
	tr.end(sp)
	return net, err
}

// Broadcast op kinds, drawn uniformly.
const (
	kindICFF1 = iota
	kindICFF3
	kindCFF
	kindDFO
	kindMulticast
	kindICFFLoss
	kindICFFFail
	numKinds
)

// multicastGroup is the group the broadcast workload's multicasts target.
const multicastGroup = 1

// broadcastRunner: read-only dissemination over one static network.
type broadcastRunner struct {
	e     env
	net   *core.Network
	rng   *rand.Rand
	kinds []int // this block's kinds, a seeded shuffle of all of them
}

func setupBroadcast(e env, tr *tracer) (runner, error) {
	net, err := buildNetwork(e, tr)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed * 7919))
	joined := 0
	for _, id := range net.CNet().Tree().Nodes() {
		if rng.Float64() < 0.3 {
			if err := net.JoinGroup(id, multicastGroup); err != nil {
				return nil, err
			}
			joined++
		}
	}
	if joined == 0 {
		if err := net.JoinGroup(net.Root(), multicastGroup); err != nil {
			return nil, err
		}
	}
	b := &broadcastRunner{e: e, net: net}
	// Warm-up: a broadcast fills the graph's adjacency caches.
	b.rng = rand.New(rand.NewSource(e.seed*7919 + 1))
	if o := b.run(kindICFF1, tr); o.fail != nil {
		return nil, o.fail
	}
	b.rng = rand.New(rand.NewSource(e.seed * 104729))
	return b, nil
}

func (b *broadcastRunner) op(i int, tr *tracer) outcome {
	if i%numKinds == 0 {
		b.kinds = b.rng.Perm(numKinds)
	}
	return b.run(b.kinds[i%numKinds], tr)
}

func (b *broadcastRunner) run(kind int, tr *tracer) outcome {
	net := b.net
	g := net.Graph()
	nodes := net.CNet().Tree().Nodes()
	source := nodes[b.rng.Intn(len(nodes))]
	lossSeed := b.rng.Int63()
	slots := net.Slots()
	k, sym, lossless := 1, scenario.SymTheorem1, true
	o := broadcast.Options{}
	planName := "broadcast.plan.icff"
	plan := func() (*broadcast.Plan, error) { return broadcast.ICFFPlan(slots, source, k, nil, nil) }
	switch kind {
	case kindICFF3:
		k = 3
		o.Channels = 3
	case kindCFF:
		sym, planName = scenario.SymLemma1, "broadcast.plan.cff"
		plan = func() (*broadcast.Plan, error) { return broadcast.CFFPlan(slots, source, 1) }
	case kindDFO:
		sym, planName = scenario.SymDFO, "broadcast.plan.dfo"
		plan = func() (*broadcast.Plan, error) { return broadcast.DFOPlan(net.CNet(), source) }
	case kindMulticast:
		planName = "multicast.plan"
		plan = func() (*broadcast.Plan, error) { return net.Groups().Plan(slots, multicastGroup, source, 1) }
	case kindICFFLoss:
		o.LossRate, o.LossSeed, lossless = 0.05, lossSeed, false
	case kindICFFFail:
		lossless = false
		// Failure rounds span the ICFF schedule from this source.
		p, err := broadcast.ICFFPlan(slots, source, 1, nil, nil)
		if err != nil {
			return outcome{fail: fail("broadcast", failError, err)}
		}
		for _, f := range workload.FailureTrace(g, source, 0.1, max(1, p.ScheduleLen), lossSeed) {
			o.Failures = append(o.Failures, broadcast.NodeFailure{Node: f.Node, Round: f.Round})
		}
	}
	m, err := run(b.e, tr, planName, g, o, plan)
	if err != nil {
		return outcome{fail: fail("broadcast", failError, err)}
	}
	out := outcome{nodeRounds: int64(len(nodes)) * int64(m.Rounds), awake: awakeSum(m)}
	out.stats = []int64{int64(kind), int64(source)}
	out.fail = checkRun(m, bound(bounds(slots, source, k), sym), lossless)
	out.stats = append(out.stats, int64(m.Rounds), int64(m.Received), int64(m.Audience),
		int64(m.Transmissions), int64(m.Collisions), int64(m.MaxAwake))
	return out
}

func (b *broadcastRunner) fold(d *digest, _ int, o outcome) { d.fold(o.stats...) }

func (b *broadcastRunner) period() int { return numKinds }

func (b *broadcastRunner) finish() *failure {
	if err := b.net.Verify(); err != nil {
		return fail("core", failNetwork, err)
	}
	return nil
}

// churnBroadcastEvery makes every 10th churn op an ICFF broadcast.
const churnBroadcastEvery = 10

// The churn trace: workload.ChurnTrace supplies churnJoins connected join
// positions, and the benchmark's seeded generator interleaves departures
// with odds churnLeaveFrac per step, each only where the rest of the graph
// stays connected. A departure is drawn uniformly from the live joiners and
// the base nodes whose CNet subtree holds at most churnMaxSubtree nodes:
// node-move-out re-inserts the leaver's subtree, and uniform departures,
// as ChurnTrace draws them, include nodes near the root that re-insert half
// the network (4.4 s against a 13 ms median); with a few hundred of them
// per run the mean op time swung 11–29 ms across 12 seeds. The ops replay
// the trace forwards and then inverted and backwards, which walks the graph
// back through the same connected states to the base deployment, so a run
// can go on for as long as it is timed; with even odds both directions
// have the same mix.
const (
	churnJoins       = 500
	churnLeaveFrac   = 0.5
	churnMaxSubtree  = 8
	churnSearchLimit = 256 // nodes the connectivity check may visit
)

// churnRunner: joins and leaves beside periodic broadcasts.
type churnRunner struct {
	e      env
	net    *core.Network
	events []churnEvent
	next   int
	rng    *rand.Rand
	// structural is the topology cost the traced run's direct layer calls
	// accumulate outside the facade; it keeps the snapshot identical.
	structural cnet.OpCost
}

// churnEvent is one trace event with the joiner's neighbor set resolved.
type churnEvent struct {
	workload.Event
	neighbors []graph.NodeID
}

func setupChurn(e env, tr *tracer) (runner, error) {
	cfg := workload.PaperConfig(e.seed, side(e.n), e.n)
	sp := tr.begin("workload.churn_trace")
	base, joins, err := workload.ChurnTrace(cfg, churnJoins, 0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("geom.udg")
	g := base.Graph()
	tr.end(sp)
	sp = tr.begin("core.build")
	net, err := core.Build(g, core.Config{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c := &churnRunner{e: e, net: net}
	rng := rand.New(rand.NewSource(e.seed*7919 + 2))
	if c.events, err = churnCycle(cfg, base.Pos, joins, smallSubtrees(net), rng); err != nil {
		return nil, err
	}
	// Warm-up: a read-only broadcast fills the adjacency caches.
	c.rng = rand.New(rand.NewSource(e.seed*7919 + 1))
	if o := c.broadcast(tr); o.fail != nil {
		return nil, o.fail
	}
	c.rng = rand.New(rand.NewSource(e.seed * 104729))
	return c, nil
}

// smallSubtrees lists, ascending, the non-root nodes whose CNet subtree
// holds at most churnMaxSubtree nodes.
func smallSubtrees(net *core.Network) []graph.NodeID {
	tr := net.CNet().Tree()
	order := tr.Subtree(tr.Root()) // preorder: parents before children
	size := make(map[graph.NodeID]int, len(order))
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		size[v]++
		if p, ok := tr.Parent(v); ok {
			size[p] += size[v]
		}
	}
	var out []graph.NodeID
	for _, v := range tr.Nodes() {
		if v != tr.Root() && size[v] <= churnMaxSubtree {
			out = append(out, v)
		}
	}
	return out
}

// removable reports whether v can leave with the graph staying connected:
// a search of the graph without v, from one of v's neighbors, reaches all
// the others within churnSearchLimit nodes. It may refuse a removable node,
// never accepts one whose departure disconnects the graph.
func removable(g *graph.Graph, v graph.NodeID) bool {
	nbrs := g.Neighbors(v)
	if len(nbrs) == 0 {
		return false
	}
	want := make(map[graph.NodeID]bool, len(nbrs))
	for _, u := range nbrs[1:] {
		want[u] = true
	}
	seen := map[graph.NodeID]bool{v: true, nbrs[0]: true}
	queue := []graph.NodeID{nbrs[0]}
	for len(queue) > 0 && len(want) > 0 && len(seen) <= churnSearchLimit {
		u := queue[0]
		queue = queue[1:]
		for _, x := range g.Neighbors(u) {
			if !seen[x] {
				seen[x] = true
				delete(want, x)
				queue = append(queue, x)
			}
		}
	}
	return len(want) == 0
}

// churnCycle interleaves the joins with departures drawn from movable (and
// the joiners, as they arrive) and appends the inverse of that trace in
// reverse order. Every joiner's neighbors are resolved ahead of time: the
// network under test sees only the neighbor lists, as a joining sensor
// would hear them.
func churnCycle(cfg workload.Config, base []geom.Point, joins []workload.Event, movable []graph.NodeID, rng *rand.Rand) ([]churnEvent, error) {
	st := workload.NewUDGState(cfg.Region, cfg.Range)
	for i, p := range base {
		if _, err := st.Join(graph.NodeID(i), p); err != nil {
			return nil, err
		}
	}
	var out []churnEvent
	movable = append([]graph.NodeID(nil), movable...) // live departure candidates
	apply := func(ev workload.Event) error {
		if ev.Kind == workload.Leave {
			ev.Pos, _ = st.Pos(ev.Node)
		}
		nb, err := st.Apply(ev)
		if err != nil {
			return err
		}
		ce := churnEvent{Event: ev}
		if ev.Kind == workload.Join {
			ce.neighbors = nb
		}
		out = append(out, ce)
		return nil
	}
	for next := 0; next < len(joins); {
		if len(movable) > 0 && rng.Float64() < churnLeaveFrac {
			off := rng.Intn(len(movable))
			for k := range movable {
				i := (off + k) % len(movable)
				if v := movable[i]; removable(st.Graph(), v) {
					movable[i] = movable[len(movable)-1]
					movable = movable[:len(movable)-1]
					if err := apply(workload.Event{Kind: workload.Leave, Node: v}); err != nil {
						return nil, err
					}
					break
				}
			}
			continue
		}
		j := joins[next]
		next++
		if !st.HasNeighbor(j.Pos) {
			continue // every node it would have heard has left
		}
		if err := apply(j); err != nil {
			return nil, err
		}
		movable = append(movable, j.Node)
	}
	for i := len(out) - 1; i >= 0; i-- {
		inv := out[i].Event // a leave carries the position it left from
		if inv.Kind == workload.Join {
			inv.Kind = workload.Leave
		} else {
			inv.Kind = workload.Join
		}
		if err := apply(inv); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *churnRunner) op(i int, tr *tracer) outcome {
	if i%churnBroadcastEvery == churnBroadcastEvery-1 {
		return c.broadcast(tr)
	}
	ev := c.events[c.next]
	c.next = (c.next + 1) % len(c.events)
	var err error
	if tr == nil {
		if ev.Kind == workload.Join {
			err = c.net.Join(ev.Node, ev.neighbors)
		} else {
			err = c.net.Leave(ev.Node)
		}
	} else if ev.Kind == workload.Join {
		err = c.tracedJoin(tr, ev)
	} else {
		err = c.tracedLeave(tr, ev)
	}
	if err != nil {
		var f *failure
		if !errors.As(err, &f) {
			f = fail("core", failError, err)
		}
		return outcome{fail: f}
	}
	return outcome{stats: []int64{int64(ev.Kind), int64(ev.Node)}}
}

// tracedJoin is core.Network.Join with its two layer calls timed apart.
func (c *churnRunner) tracedJoin(tr *tracer, ev churnEvent) error {
	sp := tr.begin("core.join")
	defer tr.end(sp)
	defer c.countRecalcs(c.net.Slots().Recalcs())
	s := tr.begin("cnet.move_in")
	_, cost, err := c.net.CNet().MoveIn(ev.Node, ev.neighbors)
	tr.end(s)
	if err != nil {
		return fail("cnet", failError, err)
	}
	c.structural.Add(cost)
	s = tr.begin("timeslot.on_join")
	err = c.net.Slots().OnJoin(ev.Node)
	tr.end(s)
	if err != nil {
		return fail("timeslot", failError, err)
	}
	return nil
}

// tracedLeave is core.Network.Leave with its layer calls timed apart.
func (c *churnRunner) tracedLeave(tr *tracer, ev churnEvent) error {
	sp := tr.begin("core.leave")
	defer tr.end(sp)
	defer c.countRecalcs(c.net.Slots().Recalcs())
	s := tr.begin("cnet.move_out")
	rec, cost, err := c.net.CNet().MoveOut(ev.Node)
	tr.end(s)
	if err != nil {
		return fail("cnet", failError, err)
	}
	c.e.count.reinserted += int64(len(rec.Reinserted))
	c.structural.Add(cost)
	s = tr.begin("timeslot.on_move_out")
	err = c.net.Slots().OnMoveOut(rec)
	tr.end(s)
	if err != nil {
		return fail("timeslot", failError, err)
	}
	s = tr.begin("multicast.on_move_out")
	c.net.Groups().OnMoveOut(rec)
	tr.end(s)
	return nil
}

func (c *churnRunner) countRecalcs(before int) {
	c.e.count.recalcs += int64(c.net.Slots().Recalcs() - before)
}

func (c *churnRunner) broadcast(tr *tracer) outcome {
	net := c.net
	nodes := net.Graph().Nodes()
	source := nodes[c.rng.Intn(len(nodes))]
	m, err := run(c.e, tr, "broadcast.plan.icff", net.Graph(), broadcast.Options{}, func() (*broadcast.Plan, error) {
		return broadcast.ICFFPlan(net.Slots(), source, 1, nil, nil)
	})
	if err != nil {
		return outcome{fail: fail("broadcast", failError, err)}
	}
	out := outcome{nodeRounds: int64(len(nodes)) * int64(m.Rounds), awake: awakeSum(m)}
	out.fail = checkRun(m, bound(bounds(net.Slots(), source, 1), scenario.SymTheorem1), true)
	out.stats = []int64{int64(source), int64(m.Rounds), int64(m.Received), int64(m.Audience),
		int64(m.Transmissions), int64(m.Collisions), int64(m.MaxAwake)}
	return out
}

func (c *churnRunner) fold(d *digest, i int, o outcome) {
	d.fold(o.stats...)
	if i%churnBroadcastEvery == churnBroadcastEvery-1 {
		// After each broadcast op, the structure the churn left behind.
		s := c.net.Stats()
		d.fold(int64(s.Nodes), int64(s.Clusters), int64(s.Gateways), int64(s.Members),
			int64(s.Height), int64(s.BackboneSize), int64(s.BackboneHeight),
			int64(s.DegreeG), int64(s.DegreeBT), int64(s.Delta), int64(s.SmallDelta),
			int64(s.StructuralRounds+c.structural.Total()), int64(s.SlotRounds))
	}
}

func (c *churnRunner) period() int { return 1 }

func (c *churnRunner) finish() *failure {
	if err := c.net.Verify(); err != nil {
		return fail("core", failNetwork, err)
	}
	return nil
}

// distRunner: broadcasts on the distributed actor runtime, each checked
// against the kernel.
type distRunner struct {
	e     env
	net   *core.Network
	rng   *rand.Rand
	kinds []int // this block's order: CFF at distCFFSlot, ICFF elsewhere
}

// distBlock is how many ops a dist block holds: three ICFF and one CFF in
// a seeded order. CFF runs the longer schedule; at one in four, p50 falls
// inside the ICFF times and p90 inside the CFF times, not on their edge.
const (
	distBlock   = 4
	distCFFSlot = 0
)

func setupDist(e env, tr *tracer) (runner, error) {
	net, err := buildNetwork(e, tr)
	if err != nil {
		return nil, err
	}
	// Warm-up: a broadcast fills the adjacency caches.
	d := &distRunner{e: e, net: net, rng: rand.New(rand.NewSource(e.seed*7919 + 1))}
	if o := d.run(false, tr); o.fail != nil {
		return nil, o.fail
	}
	d.rng = rand.New(rand.NewSource(e.seed * 104729))
	return d, nil
}

func (d *distRunner) op(i int, tr *tracer) outcome {
	if i%distBlock == 0 {
		d.kinds = d.rng.Perm(distBlock)
	}
	return d.run(d.kinds[i%distBlock] == distCFFSlot, tr)
}

func (d *distRunner) run(cff bool, tr *tracer) outcome {
	net := d.net
	g := net.Graph()
	nodes := net.CNet().Tree().Nodes()
	source := nodes[d.rng.Intn(len(nodes))]
	slots := net.Slots()
	kind, planName, sym := int64(kindICFF1), "broadcast.plan.icff", scenario.SymTheorem1
	plan := func() (*broadcast.Plan, error) { return broadcast.ICFFPlan(slots, source, 1, nil, nil) }
	if cff {
		kind, planName, sym = kindCFF, "broadcast.plan.cff", scenario.SymLemma1
		plan = func() (*broadcast.Plan, error) { return broadcast.CFFPlan(slots, source, 1) }
	}
	sp := tr.begin(planName)
	p, err := plan()
	tr.end(sp)
	if err != nil {
		return outcome{fail: fail("broadcast", failError, err)}
	}
	m, err := runPlan(d.e, tr, "dist.run", p, g, broadcast.Options{Runtime: broadcast.RuntimeDist})
	if err != nil {
		return outcome{fail: fail("dist", failError, err)}
	}
	out := outcome{nodeRounds: int64(len(nodes)) * int64(m.Rounds), awake: awakeSum(m)}
	d.e.count.distRounds += int64(m.Rounds)
	out.stats = []int64{int64(source), kind, int64(m.Rounds), int64(m.Received), int64(m.Audience),
		int64(m.Transmissions), int64(m.Collisions), int64(m.MaxAwake)}
	if out.fail = checkRun(m, bound(bounds(slots, source, 1), sym), true); out.fail != nil {
		return out
	}

	// The kernel re-runs a fresh plan (programs are stateful) untimed by
	// radio.Perf, so the whole check is one span.
	sp = tr.begin("dist.kernel_check")
	defer tr.end(sp)
	kp, err := plan()
	if err != nil {
		out.fail = fail("broadcast", failError, err)
		return out
	}
	km, err := kp.Run(g, broadcast.Options{})
	if err != nil {
		out.fail = fail("radio", failError, err)
		return out
	}
	out.fail = checkDist(m, km)
	return out
}

func (d *distRunner) fold(dg *digest, _ int, o outcome) { dg.fold(o.stats...) }

func (d *distRunner) period() int { return distBlock }

func (d *distRunner) finish() *failure {
	if err := d.net.Verify(); err != nil {
		return fail("core", failNetwork, err)
	}
	return nil
}
