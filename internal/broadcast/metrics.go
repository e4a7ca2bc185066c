package broadcast

import (
	"fmt"

	"dynsens/internal/dist"
	"dynsens/internal/flight"
	"dynsens/internal/graph"
	"dynsens/internal/obs"
	"dynsens/internal/radio"
)

// Runtimes a plan can execute on.
const (
	// RuntimeKernel is the in-process shard-parallel kernel (the default).
	RuntimeKernel = "kernel"
	// RuntimeDist is the distributed actor runtime (internal/dist): every
	// program becomes an isolated message-passing node behind a framed
	// connection, driven round by round by the same kernel through frame
	// barriers. Byte-identical results and recordings for the same seed and
	// scenario.
	RuntimeDist = "dist"
)

// NodeFailure kills a node at the start of a round during the run.
type NodeFailure = radio.NodeFailure

// LinkFailure cuts a link at the start of a round during the run.
type LinkFailure = radio.LinkFailure

// Options tune a protocol run: the engine configuration every protocol
// takes (faults, sinks, workers; see radio.Config), plus what only a plan
// run has.
type Options struct {
	radio.Config
	// Channels is the number of radio channels k (default 1).
	Channels int
	// Obs, when non-nil, receives the run's instrumentation: radio event
	// counters and awake histograms under a protocol label, plus the
	// run-level broadcast metrics (see docs/observability.md). Safe to
	// share across concurrent runs.
	Obs *obs.Registry
	// Flight, when non-nil, records the run into a flight recording: all
	// radio events, the plan's protocol phase markers, and a footer
	// summarizing the outcome. The caller owns the writer (header,
	// topology and Close); see internal/flight.
	Flight *flight.Writer
	// Runtime selects the execution substrate: RuntimeKernel (default) or
	// RuntimeDist. Both produce byte-identical metrics, traces and
	// recordings for the same plan and options — the distributed runtime's
	// equivalence obligation (see internal/dist).
	Runtime string
	// Fleet overrides the distributed runtime's transport; nil hosts each
	// program on its own goroutine behind an in-memory pipe (LocalFleet).
	// Supply a dist.ProcFleet of cmd/dnode children or a dist.TCPFleet for
	// process or network isolation. RuntimeDist only.
	Fleet dist.Fleet
}

func (o Options) channels() int {
	if o.Channels <= 0 {
		return 1
	}
	return o.Channels
}

// Metrics reports what a protocol run actually did.
type Metrics struct {
	Protocol string
	// ScheduleLen is the planned duration in rounds.
	ScheduleLen int
	// Rounds is what the engine executed (early quiescence possible).
	Rounds int
	// Audience is the number of nodes expected to hold the payload.
	Audience int
	// Received is how many of them actually got it.
	Received int
	// Completed is Received == Audience.
	Completed bool
	// CompletionRound is the round in which the last audience node first
	// received the payload (0 when the audience is only the source).
	CompletionRound int
	// MaxAwake / MeanAwake summarize per-node awake rounds.
	MaxAwake  int
	MeanAwake float64
	// Collisions and Transmissions are engine counters.
	Collisions    int
	Transmissions int
	// Quiesced is true when every live program reported Done before the
	// round budget ran out (the network went back to sleep on its own).
	Quiesced bool
	// Awake is the per-node breakdown; Listens and Transmits split it by
	// activity for energy models.
	Awake     map[graph.NodeID]int
	Listens   map[graph.NodeID]int
	Transmits map[graph.NodeID]int
}

// DeliveryRatio returns Received/Audience (1 for an empty audience).
func (m Metrics) DeliveryRatio() float64 {
	if m.Audience == 0 {
		return 1
	}
	return float64(m.Received) / float64(m.Audience)
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: rounds=%d (sched %d) delivered=%d/%d completion=%d maxAwake=%d meanAwake=%.1f collisions=%d tx=%d",
		m.Protocol, m.Rounds, m.ScheduleLen, m.Received, m.Audience,
		m.CompletionRound, m.MaxAwake, m.MeanAwake, m.Collisions, m.Transmissions)
}

// Metric names recorded by Metrics.Record, all labeled by protocol.
const (
	// MetricBroadcastRuns counts protocol runs.
	MetricBroadcastRuns = "dynsens_broadcast_runs_total"
	// MetricBroadcastCompletions counts runs that delivered to the whole
	// audience.
	MetricBroadcastCompletions = "dynsens_broadcast_completions_total"
	// MetricBroadcastDelivered counts audience nodes that received the
	// payload, MetricBroadcastAudience the nodes expected to.
	MetricBroadcastDelivered = "dynsens_broadcast_delivered_nodes_total"
	// MetricBroadcastAudience counts nodes expected to receive.
	MetricBroadcastAudience = "dynsens_broadcast_audience_nodes_total"
	// MetricBroadcastCompletionRound is the histogram of rounds until the
	// last audience node first held the payload — the round-latency
	// distribution (percentiles, not just means, matter at scale).
	MetricBroadcastCompletionRound = "dynsens_broadcast_completion_round"
	// MetricBroadcastScheduleRounds is the histogram of planned schedule
	// lengths.
	MetricBroadcastScheduleRounds = "dynsens_broadcast_schedule_rounds"
	// MetricBroadcastMaxAwake is the histogram of per-run maximum awake
	// rounds — the energy headline the paper optimizes.
	MetricBroadcastMaxAwake = "dynsens_broadcast_max_awake_rounds"
)

// Record exports the run's measured outcome into reg under a
// protocol=<name> label. Counters aggregate across runs sharing a
// registry; histograms collect per-run distributions.
func (m Metrics) Record(reg *obs.Registry) {
	lbl := obs.L("protocol", m.Protocol)
	reg.Counter(MetricBroadcastRuns, "Broadcast/multicast protocol runs.", lbl).Inc()
	if m.Completed {
		reg.Counter(MetricBroadcastCompletions, "Runs that reached the whole audience.", lbl).Inc()
	}
	reg.Counter(MetricBroadcastDelivered, "Audience nodes that received the payload.", lbl).Add(int64(m.Received))
	reg.Counter(MetricBroadcastAudience, "Nodes expected to receive the payload.", lbl).Add(int64(m.Audience))
	reg.Histogram(MetricBroadcastCompletionRound, "Round in which the last audience node first received.", obs.RoundBuckets(), lbl).Observe(float64(m.CompletionRound))
	reg.Histogram(MetricBroadcastScheduleRounds, "Planned schedule length in rounds.", obs.RoundBuckets(), lbl).Observe(float64(m.ScheduleLen))
	reg.Histogram(MetricBroadcastMaxAwake, "Per-run maximum awake rounds over all nodes.", obs.AwakeBuckets(), lbl).Observe(float64(m.MaxAwake))
}

// Plan is a fully-scheduled protocol instance ready to run.
type Plan struct {
	Protocol    string
	Programs    map[graph.NodeID]radio.Program
	ScheduleLen int
	// Audience lists the nodes expected to receive (or already hold) the
	// payload.
	Audience []graph.NodeID
	// Phases marks the protocol's round ranges (preamble, backbone flood,
	// leaf delivery, …) for flight recordings and trace viewers.
	Phases []flight.Phase
}

// StampGroup sets the multicast group ID carried in every scheduled
// transmission of the plan (the paper transmits the group ID with the
// broadcast message).
func (p *Plan) StampGroup(group int) {
	for _, prog := range p.Programs {
		if fn, ok := prog.(*floodNode); ok {
			for i := range fn.txs {
				fn.txs[i].Msg.Group = group
			}
		}
	}
}

// Preload marks nodes as already holding the payload (e.g. from an earlier
// repetition); they skip listening for it and relay at their scheduled
// slots immediately.
func (p *Plan) Preload(has map[graph.NodeID]bool) {
	for id, prog := range p.Programs {
		if fn, ok := prog.(*floodNode); ok && has[id] {
			fn.startHas = true
		}
	}
}

// newEngine builds the runtime opts.Runtime selects, running under
// opts.Config. Both runtimes are the same *radio.Engine — the distributed
// one hosts its nodes behind a dist.Coordinator — so every sink, failure
// and skew setting reaches them identically, which is what makes their
// recordings byte-comparable.
func (p *Plan) newEngine(g *graph.Graph, opts Options) (*radio.Engine, func(), error) {
	switch opts.Runtime {
	case "", RuntimeKernel:
		eng, err := radio.NewEngine(g, p.Programs, opts.Config)
		return eng, func() {}, err
	case RuntimeDist:
		fleet := opts.Fleet
		external := fleet != nil
		if fleet == nil {
			fleet = dist.NewLocalFleet(p.Programs)
		}
		coord, err := dist.NewCoordinator(g, fleet, opts.Config)
		if err != nil {
			return nil, nil, err
		}
		if external {
			// An external fleet (ProcFleet, TCPFleet) hosts its own
			// reconstructions of the Programs; mirror deliveries into the
			// local copies so the post-run Received() metrics fill sees
			// them. The default LocalFleet serves these very objects, so
			// mirroring there would double-deliver.
			coord.MirrorDeliveries(p.Programs)
		}
		return coord.Engine, func() { _ = coord.Close() }, nil
	}
	return nil, nil, fmt.Errorf("broadcast: unknown runtime %q (kernel|dist)", opts.Runtime)
}

// Run executes the plan on the given graph. The engine runs for the
// schedule plus the largest clock skew, so a late node still gets its
// slots.
func (p *Plan) Run(g *graph.Graph, opts Options) (Metrics, error) {
	var col *obs.RadioCollector
	if opts.Obs != nil {
		col = obs.NewRadioCollector(opts.Obs, obs.L("protocol", p.Protocol))
	}
	// The caller's hook, the obs collector and the flight writer share the
	// batched hook — one sink call per shard buffer per phase per round.
	if col != nil {
		opts.TraceBatch = obs.ChainBatchHooks(opts.TraceBatch, col.BatchHook())
	}
	if opts.Flight != nil {
		opts.TraceBatch = obs.ChainBatchHooks(opts.TraceBatch, opts.Flight.BatchHook())
	}
	eng, done, err := p.newEngine(g, opts)
	if err != nil {
		return Metrics{}, err
	}
	defer done()
	maxSkew := 0
	for _, off := range opts.Skew {
		maxSkew = max(maxSkew, off, -off)
	}
	res := eng.Run(p.ScheduleLen + maxSkew)

	m := Metrics{
		Protocol:      p.Protocol,
		ScheduleLen:   p.ScheduleLen,
		Rounds:        res.Rounds,
		Quiesced:      res.Quiesced,
		Audience:      len(p.Audience),
		MaxAwake:      res.MaxAwake(),
		MeanAwake:     res.MeanAwake(),
		Collisions:    res.Collisions,
		Transmissions: res.Transmissions,
		Awake:         res.Awake,
		Listens:       res.Listens,
		Transmits:     res.Transmits,
	}
	for _, id := range p.Audience {
		fn, ok := p.Programs[id].(receiver)
		if !ok {
			return Metrics{}, fmt.Errorf("broadcast: program of %d does not expose reception", id)
		}
		got, round := fn.Received()
		if got {
			m.Received++
			if round > m.CompletionRound {
				m.CompletionRound = round
			}
		}
	}
	m.Completed = m.Received == m.Audience
	if col != nil {
		col.ObserveResult(res)
		m.Record(opts.Obs)
	}
	if opts.Flight != nil {
		for _, ph := range p.Phases {
			opts.Flight.WritePhase(ph)
		}
		opts.Flight.SetFooter(flight.Footer{
			ScheduleLen:     p.ScheduleLen,
			Rounds:          res.Rounds,
			Deliveries:      res.Deliveries,
			Collisions:      res.Collisions,
			Transmissions:   res.Transmissions,
			Losses:          res.Losses,
			Received:        m.Received,
			Audience:        m.Audience,
			CompletionRound: m.CompletionRound,
		})
	}
	return m, nil
}

// receiver is implemented by all protocol programs.
type receiver interface {
	Received() (bool, int)
}
