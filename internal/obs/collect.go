package obs

import (
	"dynsens/internal/radio"
)

// Metric names exported by the radio collector. They are variables of the
// package, not magic strings at call sites, so the reconciliation tests and
// the docs/observability.md catalog reference one definition.
const (
	// MetricRadioTransmissions counts transmit actions.
	MetricRadioTransmissions = "dynsens_radio_transmissions_total"
	// MetricRadioDeliveries counts successful receptions.
	MetricRadioDeliveries = "dynsens_radio_deliveries_total"
	// MetricRadioCollisions counts (listener, round) collision pairs.
	MetricRadioCollisions = "dynsens_radio_collisions_total"
	// MetricRadioLosses counts frames dropped by the loss model.
	MetricRadioLosses = "dynsens_radio_losses_total"
	// MetricRadioNodeFailures counts injected node deaths.
	MetricRadioNodeFailures = "dynsens_radio_node_failures_total"
	// MetricRadioLinkFailures counts injected link cuts.
	MetricRadioLinkFailures = "dynsens_radio_link_failures_total"
	// MetricRadioAwakeRounds is the per-node awake-round histogram — the
	// paper's energy metric, and the distribution that makes the DFO
	// awake-time gap of [19] visible per node rather than as a mean.
	MetricRadioAwakeRounds = "dynsens_radio_awake_rounds"
	// MetricRadioRounds is the histogram of executed rounds per run.
	MetricRadioRounds = "dynsens_radio_rounds"
)

// AwakeBuckets are the awake-round histogram bounds: power-of-two rounds
// up to 4096, covering everything from a one-slot member to a DFO node
// awake for a whole tour on the largest sweeps.
func AwakeBuckets() []float64 { return ExpBuckets(1, 2, 13) }

// RoundBuckets are the round-latency histogram bounds used for schedule
// and completion metrics.
func RoundBuckets() []float64 { return ExpBuckets(1, 2, 13) }

// RadioCollector counts radio-engine events into a registry. Install its
// BatchHook as radio.Config.TraceBatch (or broadcast.Options.Obs does
// it for you) and call ObserveResult once the run finishes. The same
// collector labels (for example protocol="ICFF") aggregate across repeated
// runs. The engine calls the hook from a single goroutine (its serial
// stitch steps) even when running with multiple shard workers, so the
// counters need no coordination beyond the registry's own atomics and
// come out identical at any worker count.
type RadioCollector struct {
	transmissions *Counter
	deliveries    *Counter
	collisions    *Counter
	losses        *Counter
	nodeFailures  *Counter
	linkFailures  *Counter
	awake         *Histogram
	rounds        *Histogram
}

// NewRadioCollector registers the radio metric family under the given
// labels and returns the collector feeding it.
func NewRadioCollector(reg *Registry, labels ...Label) *RadioCollector {
	return &RadioCollector{
		transmissions: reg.Counter(MetricRadioTransmissions, "Transmit actions executed by the radio engine.", labels...),
		deliveries:    reg.Counter(MetricRadioDeliveries, "Successful single-transmitter receptions.", labels...),
		collisions:    reg.Counter(MetricRadioCollisions, "Listener-rounds that heard two or more transmitters.", labels...),
		losses:        reg.Counter(MetricRadioLosses, "Frames dropped by the loss model.", labels...),
		nodeFailures:  reg.Counter(MetricRadioNodeFailures, "Injected node deaths.", labels...),
		linkFailures:  reg.Counter(MetricRadioLinkFailures, "Injected link cuts.", labels...),
		awake:         reg.Histogram(MetricRadioAwakeRounds, "Per-node awake rounds (listen + transmit) per run.", AwakeBuckets(), labels...),
		rounds:        reg.Histogram(MetricRadioRounds, "Rounds executed per engine run.", RoundBuckets(), labels...),
	}
}

// BatchHook returns the trace callback for radio.Config.TraceBatch: it
// tallies one shard buffer locally and then touches each counter's atomic
// once per batch instead of once per event.
func (c *RadioCollector) BatchHook() func([]radio.Event) {
	return func(evs []radio.Event) {
		var tx, del, col, loss, nf, lf int64
		for i := range evs {
			switch evs[i].Kind {
			case radio.EvTransmit:
				tx++
			case radio.EvDeliver:
				del++
			case radio.EvCollision:
				col++
			case radio.EvLoss:
				loss++
			case radio.EvNodeFail:
				nf++
			case radio.EvLinkFail:
				lf++
			}
		}
		if tx > 0 {
			c.transmissions.Add(tx)
		}
		if del > 0 {
			c.deliveries.Add(del)
		}
		if col > 0 {
			c.collisions.Add(col)
		}
		if loss > 0 {
			c.losses.Add(loss)
		}
		if nf > 0 {
			c.nodeFailures.Add(nf)
		}
		if lf > 0 {
			c.linkFailures.Add(lf)
		}
	}
}

// ObserveResult records the run-level distributions: one awake-round
// observation per node and the executed round count. Node order does not
// affect the histogram, so iterating the result map directly is safe.
func (c *RadioCollector) ObserveResult(res radio.Result) {
	for _, a := range res.Awake {
		c.awake.Observe(float64(a))
	}
	c.rounds.Observe(float64(res.Rounds))
}

// ChainBatchHooks composes trace callbacks left to right, skipping nils,
// so a metrics collector can ride alongside a recorder or JSONL sink on
// the engine's single trace slot. Consumers that retain events must copy
// them — the engine reuses the batch slice.
func ChainBatchHooks(hooks ...func([]radio.Event)) func([]radio.Event) {
	var live []func([]radio.Event)
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(evs []radio.Event) {
		for _, h := range live {
			h(evs)
		}
	}
}
