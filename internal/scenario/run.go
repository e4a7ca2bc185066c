// run.go is the single scenario runner behind all three entry points (go
// test corpus walker, dynsim/nettool CLI, flight record→replay): it builds
// the deployment a spec names, applies the script, executes the protocol
// on the radio engine, and evaluates every assertion into structured
// outcomes. With recording enabled the same run is captured as a .dsfr
// flight recording and re-verified offline, and the offline verdicts must
// agree with the live ones.
package scenario

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/discovery"
	"dynsens/internal/dist"
	"dynsens/internal/energy"
	"dynsens/internal/flight"
	"dynsens/internal/gather"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/netio"
	"dynsens/internal/obs"
	"dynsens/internal/radio"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

// RunOptions tune one runner invocation.
type RunOptions struct {
	// Workers overrides the spec's engine worker count when > 0. Purely a
	// wall-clock knob: outcomes and recordings are byte-identical.
	Workers int
	// Record captures the run as a .dsfr flight recording in
	// Result.Recording (broadcast-family protocols only).
	Record bool
	// Verify implies Record: the captured recording is decoded, checked
	// with flight.Verify, and the scenario's assertions are re-evaluated
	// offline from it — every offline-decidable verdict must agree with
	// the live one.
	Verify bool
	// Update refreshes the golden metrics/timeline sections instead of
	// comparing them; Result.Updated then holds the re-formatted file.
	Update bool
	// Runtime overrides the spec's runtime when non-empty ("kernel" or
	// "dist") — the dynsim -runtime flag — so the existing corpus runs
	// head-to-head on both runtimes without editing files.
	Runtime string
	// Fleet overrides the distributed runtime's transport (nil = one
	// goroutine per node behind an in-memory pipe). dynsim -dnode wires a
	// dist.ProcFleet of cmd/dnode child processes here. Dist runtime only.
	Fleet dist.Fleet
	// Obs, when non-nil, receives the run's instrumentation: the built
	// network's topology counters (cnet.CNet.Instrument) and slot gauges
	// (timeslot.Assignment.Record), then the protocol's radio and
	// broadcast series (broadcast.Options.Obs).
	Obs *obs.Registry
	// Perf, when non-nil, collects kernel performance introspection for
	// the protocol run (radio.Engine.SetPerf). Strictly read-only.
	Perf *radio.Perf
	// TraceBatch, when non-nil, receives the protocol run's radio events
	// in per-shard batches (radio.Engine.SetTraceBatch); copy events to
	// retain them.
	TraceBatch func([]radio.Event)
	// RecordRing > 0 bounds the recording to the last RecordRing radio
	// events; the header's RingLimit says so.
	RecordRing int
}

// Result is one evaluated scenario run.
type Result struct {
	Scenario *Scenario
	Measured Measured
	Bounds   Bounds
	// Stats is the built network's structure, taken after the script's
	// churn/mobility trace and before the protocol runs.
	Stats core.Snapshot
	// Outcomes holds one entry per assertion, plus golden comparisons and
	// (with RunOptions.Verify) the flight verifier and replay-agreement
	// outcomes.
	Outcomes []Outcome
	// Recording is the captured .dsfr (nil unless requested).
	Recording []byte
	// MetricsText / TimelineText are the rendered golden candidates.
	MetricsText  string
	TimelineText string
	// Updated is the re-formatted scenario file after a golden refresh
	// (nil unless RunOptions.Update changed anything).
	Updated []byte
}

// Passed reports whether every outcome held.
func (r *Result) Passed() bool {
	for _, o := range r.Outcomes {
		if !o.OK {
			return false
		}
	}
	return true
}

// Failures returns the outcomes that did not hold.
func (r *Result) Failures() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if !o.OK {
			out = append(out, o)
		}
	}
	return out
}

// Write renders the report: a summary line of the measured metrics, one
// line per outcome, and the verdict.
func (r *Result) Write(w io.Writer) error {
	m := r.Measured
	awake := ""
	if m.HasAwake {
		awake = fmt.Sprintf(" max-awake=%d mean-awake=%.2f", m.MaxAwake, m.MeanAwake)
	}
	if _, err := fmt.Fprintf(w, "scenario %s: %s rounds=%d/%d delivered=%d/%d completion=%d%s collisions=%d tx=%d\n",
		r.Scenario.Name(), m.Protocol, m.Rounds, m.ScheduleLen, m.Received, m.Audience,
		m.CompletionRound, awake, m.Collisions, m.Transmissions); err != nil {
		return err
	}
	failed := 0
	for _, o := range r.Outcomes {
		if !o.OK {
			failed++
		}
		if _, err := fmt.Fprintf(w, "  %s\n", o); err != nil {
			return err
		}
	}
	verdict := fmt.Sprintf("scenario %s: PASS (%d checks)", r.Scenario.Name(), len(r.Outcomes))
	if failed > 0 {
		verdict = fmt.Sprintf("scenario %s: FAIL (%d of %d checks)", r.Scenario.Name(), failed, len(r.Outcomes))
	}
	_, err := fmt.Fprintln(w, verdict)
	return err
}

// FlightCapable reports whether the protocol's run can be captured as a
// flight recording; "" means the spec default (icff). Gather and
// discovery use bespoke engines/metrics the .dsfr footer does not model.
func FlightCapable(proto string) bool {
	switch proto {
	case "", "icff", "cff", "dfo", "multicast", "pflood":
		return true
	}
	return false
}

// traceStep returns the scenario's churn/mobility step, if any.
func traceStep(s *Scenario) (Step, bool) {
	for _, st := range s.Script {
		if st.Verb == VerbChurn || st.Verb == VerbMobility {
			return st, true
		}
	}
	return Step{}, false
}

// flightDelta converts a live churn delta to its recorded form.
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

// applyEvents replays a churn/mobility trace against the live network:
// joins discover their neighbors by range over the tracked positions,
// leaves retire the node. The live ID set is kept sorted so neighbor
// discovery is deterministic.
func applyEvents(net *core.Network, base *geom.Deployment, rng float64, events []workload.Event) error {
	pos := make(map[graph.NodeID]geom.Point, len(base.Pos))
	ids := make([]graph.NodeID, 0, len(base.Pos))
	for i, p := range base.Pos {
		pos[graph.NodeID(i)] = p
		ids = append(ids, graph.NodeID(i))
	}
	for step, ev := range events {
		switch ev.Kind {
		case workload.Join:
			var nbrs []graph.NodeID
			for _, id := range ids {
				if ev.Pos.InRange(pos[id], rng) {
					nbrs = append(nbrs, id)
				}
			}
			if err := net.Join(ev.Node, nbrs); err != nil {
				return fmt.Errorf("scenario: trace step %d: join %d: %w", step, ev.Node, err)
			}
			pos[ev.Node] = ev.Pos
			i := sort.Search(len(ids), func(i int) bool { return ids[i] >= ev.Node })
			ids = append(ids, 0)
			copy(ids[i+1:], ids[i:])
			ids[i] = ev.Node
		case workload.Leave:
			if err := net.Leave(ev.Node); err != nil {
				return fmt.Errorf("scenario: trace step %d: leave %d: %w", step, ev.Node, err)
			}
			delete(pos, ev.Node)
			i := sort.Search(len(ids), func(i int) bool { return ids[i] >= ev.Node })
			if i < len(ids) && ids[i] == ev.Node {
				ids = append(ids[:i], ids[i+1:]...)
			}
		}
	}
	return nil
}

// buildNet realizes the spec's deployment and runs the script's
// churn/mobility trace against it, returning the self-organized network
// every runtime executes on. Both the live runner and the dnode worker go
// through here, so a distributed worker reconstructs bit-for-bit the same
// network (and hence the same Programs) as the coordinator.
func buildNet(s *Scenario, coreCfg core.Config) (*core.Network, error) {
	sp := s.Spec
	cfg := workload.PaperConfig(sp.Seed, sp.Side, sp.N)
	var net *core.Network
	if st, ok := traceStep(s); ok {
		var base *geom.Deployment
		var events []workload.Event
		var err error
		if st.Verb == VerbChurn {
			base, events, err = workload.ChurnTrace(cfg, st.Steps, st.Frac)
		} else {
			base, events, err = workload.MobilityTrace(cfg, st.Steps, st.Frac)
		}
		if err != nil {
			return nil, err
		}
		if net, err = core.Build(base.Graph(), coreCfg); err != nil {
			return nil, err
		}
		if err = applyEvents(net, base, cfg.Range, events); err != nil {
			return nil, err
		}
		if err = net.Verify(); err != nil {
			return nil, fmt.Errorf("scenario %s: invariant violation after trace: %w", s.Name(), err)
		}
	} else if sp.deploy() == "grid" {
		base, err := workload.GridDeployment(cfg)
		if err != nil {
			return nil, err
		}
		if net, err = core.Build(base.Graph(), coreCfg); err != nil {
			return nil, err
		}
		if err = net.Verify(); err != nil {
			return nil, fmt.Errorf("scenario %s: invariant violation: %w", s.Name(), err)
		}
	} else {
		var err error
		if net, _, err = core.Deploy(sp.Side, sp.N, sp.Seed, coreCfg); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// joinGroups seeds the multicast group membership from the spec: a
// deterministic fraction of the tree's nodes joins, with the root as a
// fallback so the group is never empty. Shared by the live runner and
// BuildPlan so coordinator and workers agree on the relay set.
func joinGroups(net *core.Network, sp Spec) error {
	rng := rand.New(rand.NewSource(sp.Seed * 31))
	joined := 0
	for _, id := range net.CNet().Tree().Nodes() {
		if rng.Float64() < sp.groupFrac() {
			if err := net.JoinGroup(id, sp.group()); err != nil {
				return err
			}
			joined++
		}
	}
	if joined == 0 {
		return net.JoinGroup(net.Root(), sp.group())
	}
	return nil
}

// BuildPlan reconstructs the scenario's broadcast plan and graph without
// running it — the dnode worker entry point: a child process loads the
// same .dsn file, rebuilds the identical deployment and plan, and serves
// its assigned Program over stdio/TCP. Only the plan-family protocols
// (the FlightCapable set) have a Program-per-node shape to distribute.
func BuildPlan(s *Scenario) (*broadcast.Plan, *graph.Graph, error) {
	sp := s.Spec
	net, err := buildNet(s, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	if !net.Contains(sp.Source) {
		return nil, nil, fmt.Errorf("scenario %s: source %d not in the network after the script", s.Name(), sp.Source)
	}
	plan, err := buildPlan(net, s)
	if err != nil {
		return nil, nil, err
	}
	return plan, net.Graph(), nil
}

// buildPlan is the one protocol switch of the plan-family protocols: the
// live runner executes its plan with Plan.Run, and BuildPlan hands the
// same plan to dnode workers, so coordinator and workers agree on every
// Program. Multicast seeds the group membership first.
func buildPlan(net *core.Network, s *Scenario) (*broadcast.Plan, error) {
	sp := s.Spec
	switch proto := sp.protocol(); proto {
	case "icff":
		return broadcast.ICFFPlan(net.Slots(), sp.Source, sp.channels(), nil, nil)
	case "cff":
		return broadcast.CFFPlan(net.Slots(), sp.Source, sp.channels())
	case "dfo":
		return broadcast.DFOPlan(net.CNet(), sp.Source)
	case "multicast":
		if err := joinGroups(net, sp); err != nil {
			return nil, err
		}
		return net.Groups().Plan(net.Slots(), sp.group(), sp.Source, sp.channels())
	case "pflood":
		return broadcast.PFloodPlan(net.Graph(), sp.Source, broadcast.PFloodOptions{
			Seed: sp.Seed * 13, Forward: sp.Forward, MaxDelay: sp.MaxDelay,
		})
	default:
		return nil, fmt.Errorf("scenario %s: no broadcast plan for protocol %q", s.Name(), proto)
	}
}

// Run executes the scenario through the live stack and evaluates its
// assertions. The error return covers setup problems (bad spec, broken
// deployment); assertion failures land in Result.Outcomes.
func Run(s *Scenario, opts RunOptions) (*Result, error) {
	sp := s.Spec
	proto := sp.protocol()
	record := opts.Record || opts.Verify
	if record && !FlightCapable(proto) {
		return nil, fmt.Errorf("scenario %s: recording supports icff|cff|dfo|multicast|pflood, not %s", s.Name(), proto)
	}
	workers := sp.Workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	runtime := sp.Runtime
	if opts.Runtime != "" {
		runtime = opts.Runtime
	}
	switch runtime {
	case "", broadcast.RuntimeKernel:
	case broadcast.RuntimeDist:
		if !FlightCapable(proto) {
			return nil, fmt.Errorf("scenario %s: runtime dist supports icff|cff|dfo|multicast|pflood, not %s", s.Name(), proto)
		}
	default:
		return nil, fmt.Errorf("scenario %s: unknown runtime %q (kernel|dist)", s.Name(), runtime)
	}

	// Flight capture: header and construction deltas first, so the
	// recording carries the full churn history of the build.
	var fw *flight.Writer
	var buf bytes.Buffer
	coreCfg := core.Config{}
	if record {
		if opts.RecordRing > 0 {
			fw = flight.NewRingWriter(&buf, opts.RecordRing)
		} else {
			fw = flight.NewWriter(&buf)
		}
		fw.WriteHeader(flight.Header{
			Seed: sp.Seed, N: sp.N, Side: sp.Side, Channels: sp.channels(),
			Source: sp.Source, Protocol: strings.ToUpper(proto),
			LossRate: sp.LossRate, LossSeed: sp.LossSeed,
		})
		coreCfg.DeltaHook = func(d cnet.Delta) { fw.WriteDelta(flightDelta(d)) }
	}

	// Deployment + self-organization.
	net, err := buildNet(s, coreCfg)
	if err != nil {
		return nil, err
	}
	if !net.Contains(sp.Source) {
		return nil, fmt.Errorf("scenario %s: source %d not in the network after the script", s.Name(), sp.Source)
	}
	if opts.Obs != nil {
		net.CNet().Instrument(opts.Obs)
		net.Slots().Record(opts.Obs)
	}
	res := &Result{Scenario: s, Stats: net.Stats()}

	// Script-driven failure injection.
	o := broadcast.Options{
		Channels: sp.Channels, Workers: workers,
		LossRate: sp.LossRate, LossSeed: sp.LossSeed,
		Runtime: runtime, Fleet: opts.Fleet,
		Obs: opts.Obs, Perf: opts.Perf, TraceBatch: opts.TraceBatch,
	}
	for _, st := range s.Script {
		switch st.Verb {
		case VerbFail:
			o.Failures = append(o.Failures, broadcast.NodeFailure{Node: st.Node, Round: st.Round})
		case VerbCut:
			o.LinkFailures = append(o.LinkFailures, broadcast.LinkFailure{A: st.Node, B: st.Peer, Round: st.Round})
		case VerbFailFrac:
			horizon := 2 * (res.Stats.BackboneSize - 1)
			if horizon < 1 {
				horizon = 1
			}
			for _, f := range workload.FailureTrace(net.Graph(), net.Root(), st.Frac, horizon, sp.Seed*17) {
				o.Failures = append(o.Failures, broadcast.NodeFailure{Node: f.Node, Round: f.Round})
			}
		}
	}
	if fw != nil {
		netio.RecordTopology(fw, net)
		for _, f := range o.Failures {
			fw.WriteDelta(flight.Delta{Kind: flight.DeltaNodeFail, Node: f.Node, Peer: flight.NoParent, Round: f.Round})
		}
		for _, lf := range o.LinkFailures {
			fw.WriteDelta(flight.Delta{Kind: flight.DeltaLinkFail, Node: lf.A, Peer: lf.B, Round: lf.Round})
		}
		o.Flight = fw
	}

	// Timeline capture, when the scenario pins a golden timeline.
	var events []radio.Event
	if s.GoldenTimeline != "" {
		o.TraceBatch = obs.ChainBatchHooks(o.TraceBatch, func(evs []radio.Event) { events = append(events, evs...) })
	}

	m, err := runProtocol(net, s, o)
	if err != nil {
		return nil, err
	}
	res.Measured = m
	res.Bounds = liveBounds(net, sp)
	if fw != nil {
		if err := fw.Close(); err != nil {
			return nil, fmt.Errorf("scenario %s: flight recording: %w", s.Name(), err)
		}
		res.Recording = append([]byte(nil), buf.Bytes()...)
	}

	for _, a := range s.Asserts {
		res.Outcomes = append(res.Outcomes, a.Eval(res.Measured, res.Bounds))
	}

	// Goldens: compare, or refresh under -update.
	res.MetricsText = renderMetrics(res.Measured)
	res.TimelineText = renderTimeline(events)
	updated := false
	if s.GoldenMetrics != "" {
		if opts.Update {
			updated = updated || s.GoldenMetrics != res.MetricsText
			s.GoldenMetrics = res.MetricsText
		} else {
			res.Outcomes = append(res.Outcomes, goldenOutcome("golden metrics", s.GoldenMetrics, res.MetricsText))
		}
	}
	if s.GoldenTimeline != "" {
		if opts.Update {
			updated = updated || s.GoldenTimeline != res.TimelineText
			s.GoldenTimeline = res.TimelineText
		} else {
			res.Outcomes = append(res.Outcomes, goldenOutcome("golden timeline", s.GoldenTimeline, res.TimelineText))
		}
	}
	if updated {
		res.Updated = s.Format()
	}

	// Offline replay: the recording must verify, and its verdicts must
	// agree with the live ones.
	if opts.Verify {
		rec, err := flight.DecodeBytes(res.Recording)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: decoding own recording: %w", s.Name(), err)
		}
		offline := EvalRecording(s, rec)
		res.Outcomes = append(res.Outcomes, verifyOutcome(flight.Verify(rec)))
		res.Outcomes = append(res.Outcomes, agreementOutcome(res, offline))
	}
	return res, nil
}

// runProtocol runs the spec's protocol — gather and discovery on their
// own engines, everything else as the one broadcast plan — and maps its
// metrics into the shared Measured shape.
func runProtocol(net *core.Network, s *Scenario, o broadcast.Options) (Measured, error) {
	sp := s.Spec
	switch sp.protocol() {
	case "gather":
		values := make(map[graph.NodeID]int64)
		for _, id := range net.CNet().Tree().Nodes() {
			values[id] = int64(id) + 1
		}
		var gfails []gather.Failure
		for _, f := range o.Failures {
			gfails = append(gfails, gather.Failure{Node: f.Node, Round: f.Round})
		}
		gm, err := net.Gather(values, gather.Options{Failures: gfails, Workers: o.Workers, Trace: o.TraceBatch, Perf: o.Perf})
		if err != nil {
			return Measured{}, err
		}
		return Measured{
			Protocol:    "GATHER",
			ScheduleLen: gm.ScheduleLen, Rounds: gm.Rounds, Quiesced: gm.Quiesced,
			Audience: gm.Nodes, Received: gm.Reporting, Completed: gm.Complete(),
			CompletionRound: gm.Rounds,
			MaxAwake:        gm.MaxAwake, MeanAwake: gm.MeanAwake,
			Collisions: gm.Collisions, Transmissions: gm.Transmissions,
			HasAwake: true, HasQuiesced: true,
		}, nil
	case "discovery":
		joiner := sp.Joiner
		if joiner < 0 {
			nodes := net.Graph().Nodes()
			joiner = nodes[len(nodes)-1]
		}
		if !net.Contains(joiner) {
			return Measured{}, fmt.Errorf("scenario %s: joiner %d not in the network", s.Name(), joiner)
		}
		dr, err := discovery.Run(net.Graph(), joiner, discovery.Options{Seed: sp.Seed * 19, Workers: o.Workers})
		if err != nil {
			return Measured{}, err
		}
		audience := len(net.Graph().Neighbors(joiner))
		return Measured{
			Protocol: "DISCOVERY",
			Rounds:   dr.Rounds, Audience: audience, Received: len(dr.Discovered),
			Completed: dr.Complete, CompletionRound: dr.Rounds,
			Collisions: dr.Collisions, Transmissions: dr.Transmissions,
		}, nil
	}
	plan, err := buildPlan(net, s)
	if err != nil {
		return Measured{}, err
	}
	bm, err := plan.Run(net.Graph(), o)
	if err != nil {
		return Measured{}, err
	}
	return measureBroadcast(bm), nil
}

// measureBroadcast maps broadcast metrics (plus the per-node energy
// maximum under the default model) into the shared Measured shape.
func measureBroadcast(bm broadcast.Metrics) Measured {
	m := Measured{
		Protocol:    bm.Protocol,
		ScheduleLen: bm.ScheduleLen, Rounds: bm.Rounds, Quiesced: bm.Quiesced,
		Audience: bm.Audience, Received: bm.Received, Completed: bm.Completed,
		CompletionRound: bm.CompletionRound,
		MaxAwake:        bm.MaxAwake, MeanAwake: bm.MeanAwake,
		Collisions: bm.Collisions, Transmissions: bm.Transmissions,
		HasAwake: true, HasEnergy: true, HasQuiesced: true,
	}
	model := energy.DefaultModel()
	for _, id := range sortedNodeKeys(bm.Awake) {
		if c := model.EpochCost(bm.Listens[id], bm.Transmits[id], bm.Rounds); c > m.Energy {
			m.Energy = c
		}
	}
	return m
}

func sortedNodeKeys(m map[graph.NodeID]int) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// liveBounds captures the paper-bound quantities from the live structure.
func liveBounds(net *core.Network, sp Spec) Bounds {
	slots := net.Slots()
	return Bounds{
		K:      sp.channels(),
		DeltaU: slots.Max(timeslot.U), SmallDelta: slots.SmallDelta(), Delta: slots.Delta(),
		H: net.CNet().Tree().Height(), HBT: net.CNet().Backbone().Height(),
		Heads: len(net.CNet().Heads()),
		Pre:   net.CNet().Tree().Depth(sp.Source),
	}
}

// goldenOutcome diffs a pinned section against the rendered candidate.
func goldenOutcome(what, want, got string) Outcome {
	o := Outcome{Assertion: what}
	if want == got {
		o.OK = true
		o.Detail = "matches"
		return o
	}
	o.Detail = fmt.Sprintf("differs from the recorded golden (run with -update to refresh):\n%s", diffBlocks(want, got))
	return o
}

// diffBlocks renders a minimal first-divergence diff of two text blocks.
func diffBlocks(want, got string) string {
	w := strings.Split(strings.TrimRight(want, "\n"), "\n")
	g := strings.Split(strings.TrimRight(got, "\n"), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "", ""
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("    line %d:\n    - %s\n    + %s", i+1, wl, gl)
		}
	}
	return "    (whitespace-only difference)"
}

// verifyOutcome condenses a flight.Verify report into one outcome.
func verifyOutcome(rep *flight.Report) Outcome {
	o := Outcome{Assertion: "flight-verify"}
	var failed []string
	evaluated := 0
	for _, c := range rep.Checks {
		if c.Err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", c.Name, c.Err))
		} else if !c.Skipped {
			evaluated++
		}
	}
	if len(failed) == 0 {
		o.OK = true
		o.Detail = fmt.Sprintf("recording passes the offline verifier (%d checks)", evaluated)
		return o
	}
	o.Detail = "offline verifier failed: " + strings.Join(failed, "; ")
	return o
}

// agreementOutcome checks that every offline-decidable assertion verdict
// matches the live one — the record/replay contract.
func agreementOutcome(live, offline *Result) Outcome {
	o := Outcome{Assertion: "replay-agrees"}
	verdicts := make(map[string]bool, len(live.Outcomes))
	for _, lo := range live.Outcomes {
		verdicts[lo.Assertion] = lo.OK
	}
	var mismatched []string
	compared := 0
	for _, oo := range offline.Outcomes {
		if oo.Skipped {
			continue
		}
		lv, ok := verdicts[oo.Assertion]
		if !ok {
			continue
		}
		compared++
		if lv != oo.OK {
			mismatched = append(mismatched, fmt.Sprintf("%q live=%v offline=%v", oo.Assertion, lv, oo.OK))
		}
	}
	if len(mismatched) == 0 {
		o.OK = true
		o.Detail = fmt.Sprintf("offline replay agrees with the live run on %d assertions", compared)
		return o
	}
	o.Detail = "offline replay disagrees: " + strings.Join(mismatched, "; ")
	return o
}

// EvalRecording evaluates the scenario's assertions offline, against a
// flight recording alone: measured values come from the footer, bound
// quantities are recomputed from the recorded slots, depths and roles.
// Assertions needing unrecorded evidence (awake split, quiescence) come
// back Skipped. A header cross-check guards against verifying a recording
// of a different scenario.
func EvalRecording(s *Scenario, rec *flight.Recording) *Result {
	res := &Result{Scenario: s}
	res.Outcomes = append(res.Outcomes, headerOutcome(s.Spec, rec.Header))
	m := Measured{Protocol: rec.Header.Protocol}
	if f := rec.Footer; f != nil {
		m.ScheduleLen, m.Rounds = f.ScheduleLen, f.Rounds
		m.Audience, m.Received = f.Audience, f.Received
		m.Completed = f.Received == f.Audience && f.Audience > 0
		m.CompletionRound = f.CompletionRound
		m.Collisions, m.Transmissions = f.Collisions, f.Transmissions
	} else {
		res.Outcomes = append(res.Outcomes, Outcome{
			Assertion: "recording-complete",
			Detail:    "recording has no footer (truncated before Close); cannot evaluate assertions offline",
		})
		return res
	}
	res.Measured = m
	res.Bounds = recordingBounds(rec)
	for _, a := range s.Asserts {
		res.Outcomes = append(res.Outcomes, a.Eval(m, res.Bounds))
	}
	return res
}

// headerOutcome cross-checks the recording header against the spec.
func headerOutcome(sp Spec, h flight.Header) Outcome {
	o := Outcome{Assertion: "recording-matches-spec"}
	var bad []string
	if !strings.EqualFold(h.Protocol, sp.protocol()) {
		bad = append(bad, fmt.Sprintf("protocol %q != %q", h.Protocol, strings.ToUpper(sp.protocol())))
	}
	if h.N != sp.N {
		bad = append(bad, fmt.Sprintf("n %d != %d", h.N, sp.N))
	}
	if h.Seed != sp.Seed {
		bad = append(bad, fmt.Sprintf("seed %d != %d", h.Seed, sp.Seed))
	}
	if h.Channels != sp.channels() {
		bad = append(bad, fmt.Sprintf("channels %d != %d", h.Channels, sp.channels()))
	}
	if h.Source != sp.Source {
		bad = append(bad, fmt.Sprintf("source %d != %d", h.Source, sp.Source))
	}
	if h.LossRate != sp.LossRate {
		bad = append(bad, fmt.Sprintf("loss %v != %v", h.LossRate, sp.LossRate))
	}
	if len(bad) == 0 {
		o.OK = true
		o.Detail = "recording header matches the scenario spec"
		return o
	}
	o.Detail = "recording is not of this scenario: " + strings.Join(bad, ", ")
	return o
}

// recordingBounds recomputes the Bounds quantities from recorded topology
// (mirroring the flight verifier's round-bound inputs).
func recordingBounds(rec *flight.Recording) Bounds {
	b := Bounds{K: rec.Header.Channels}
	for _, n := range rec.Nodes {
		if n.BSlot > b.SmallDelta {
			b.SmallDelta = n.BSlot
		}
		if n.LSlot > b.Delta {
			b.Delta = n.LSlot
		}
		if n.USlot > b.DeltaU {
			b.DeltaU = n.USlot
		}
		if n.Depth > b.H {
			b.H = n.Depth
		}
		switch n.Role {
		case flight.RoleHead:
			b.Heads++
			fallthrough
		case flight.RoleGateway:
			if n.Depth > b.HBT {
				b.HBT = n.Depth
			}
		}
		if n.ID == rec.Header.Source {
			b.Pre = n.Depth
		}
	}
	return b
}

// renderMetrics is the golden "metrics" section: the measured outcome in
// canonical key = value lines (awake/energy lines only when measured).
func renderMetrics(m Measured) string {
	var b strings.Builder
	put := func(k, v string) { fmt.Fprintf(&b, "%s = %s\n", k, v) }
	put("protocol", m.Protocol)
	put("schedule-len", fmt.Sprint(m.ScheduleLen))
	put("rounds", fmt.Sprint(m.Rounds))
	put("audience", fmt.Sprint(m.Audience))
	put("received", fmt.Sprint(m.Received))
	put("completed", fmt.Sprint(m.Completed))
	put("completion-round", fmt.Sprint(m.CompletionRound))
	if m.HasQuiesced {
		put("quiesced", fmt.Sprint(m.Quiesced))
	}
	put("collisions", fmt.Sprint(m.Collisions))
	put("transmissions", fmt.Sprint(m.Transmissions))
	if m.HasAwake {
		put("max-awake", fmt.Sprint(m.MaxAwake))
		put("mean-awake", fmt.Sprintf("%.2f", m.MeanAwake))
	}
	if m.HasEnergy {
		put("max-energy", fmt.Sprintf("%.2f", m.Energy))
	}
	return b.String()
}

// renderTimeline is the golden "timeline" section: per-round event counts,
// one line per round with activity.
func renderTimeline(events []radio.Event) string {
	type counts struct{ tx, rx, coll, loss, nodeFail, linkFail int }
	perRound := map[int]*counts{}
	last := 0
	for _, ev := range events {
		c := perRound[ev.Round]
		if c == nil {
			c = &counts{}
			perRound[ev.Round] = c
		}
		if ev.Round > last {
			last = ev.Round
		}
		switch ev.Kind {
		case radio.EvTransmit:
			c.tx++
		case radio.EvDeliver:
			c.rx++
		case radio.EvCollision:
			c.coll++
		case radio.EvLoss:
			c.loss++
		case radio.EvNodeFail:
			c.nodeFail++
		case radio.EvLinkFail:
			c.linkFail++
		}
	}
	var b strings.Builder
	for r := 0; r <= last; r++ {
		c := perRound[r]
		if c == nil {
			continue
		}
		fmt.Fprintf(&b, "r%d", r)
		for _, f := range []struct {
			name string
			n    int
		}{{"tx", c.tx}, {"rx", c.rx}, {"coll", c.coll}, {"loss", c.loss}, {"node-fail", c.nodeFail}, {"link-fail", c.linkFail}} {
			if f.n > 0 {
				fmt.Fprintf(&b, " %s=%d", f.name, f.n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
