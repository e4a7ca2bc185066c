// Package trace records radio-engine events and renders round-by-round
// protocol timelines — the debugging view of what a broadcast actually did
// on the air: who transmitted on which channel, who received from whom,
// where collisions happened, and which nodes died.
//
// Recorders need no locking: the radio engine invokes its trace hook from
// a single goroutine (the kernel's serial stitch steps between phases)
// regardless of its worker count, and
// the event stream — Seq numbers included — is byte-identical at any
// radio.Engine.SetWorkers value.
package trace

import (
	"fmt"
	"io"
	"sort"

	"dynsens/internal/obs"
	"dynsens/internal/radio"
)

// KindName returns a short label for an event kind. It is the same label
// radio.EventKind.String produces; the alias predates that method.
func KindName(k radio.EventKind) string { return k.String() }

// MetricTraceEventsDropped counts events a bounded Recorder refused to
// keep — the observability of the recorder's own blind spot. Emitted only
// by instrumented recorders (see Instrument).
const MetricTraceEventsDropped = "dynsens_trace_events_dropped_total"

// Recorder collects events up to a limit (0 = unlimited). Events beyond
// the limit are not silently gone: Dropped reports the count, Render
// appends it as a footer, and Instrument exports it as an obs counter.
type Recorder struct {
	limit   int
	events  []radio.Event
	dropped int
	dropCtr *obs.Counter // nil unless Instrument was called
}

// NewRecorder creates a recorder keeping at most limit events (0 keeps
// everything).
func NewRecorder(limit int) *Recorder { return &Recorder{limit: limit} }

// Instrument makes the recorder count dropped events into reg under
// MetricTraceEventsDropped, so a truncated recording is visible on the
// metrics plane, not only in the timeline footer.
func (r *Recorder) Instrument(reg *obs.Registry) {
	r.dropCtr = reg.Counter(MetricTraceEventsDropped,
		"Radio events dropped by a bounded trace recorder.")
}

// BatchHook returns the callback to install with Engine.SetTraceBatch or
// broadcast.Options.TraceBatch: one call per shard buffer per phase per
// round. The engine reuses the batch slice between calls, so the events
// are copied into the recorder's own storage here.
func (r *Recorder) BatchHook() func([]radio.Event) {
	return func(evs []radio.Event) {
		if r.limit > 0 {
			if room := r.limit - len(r.events); room < len(evs) {
				d := len(evs) - room
				r.dropped += d
				if r.dropCtr != nil {
					r.dropCtr.Add(int64(d))
				}
				evs = evs[:room]
			}
		}
		r.events = append(r.events, evs...)
	}
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped returns how many events exceeded the limit.
func (r *Recorder) Dropped() int { return r.dropped }

// Events returns the recorded events (shared slice; do not modify).
func (r *Recorder) Events() []radio.Event { return r.events }

// Reset clears the recorder.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.dropped = 0
}

// Counts tallies events per kind.
func (r *Recorder) Counts() map[radio.EventKind]int {
	out := make(map[radio.EventKind]int)
	for _, ev := range r.events {
		out[ev.Kind]++
	}
	return out
}

// ChannelLoad counts transmissions per channel.
func (r *Recorder) ChannelLoad() map[radio.Channel]int {
	out := make(map[radio.Channel]int)
	for _, ev := range r.events {
		if ev.Kind == radio.EvTransmit {
			out[ev.Channel]++
		}
	}
	return out
}

// LastRound returns the highest round seen (0 when empty).
func (r *Recorder) LastRound() int {
	max := 0
	for _, ev := range r.events {
		if ev.Round > max {
			max = ev.Round
		}
	}
	return max
}

// Render writes a per-round timeline. Rounds with no events are skipped;
// a bounded recorder that dropped events says so in a footer line.
func (r *Recorder) Render(w io.Writer) error {
	return RenderEvents(w, r.events, r.dropped)
}

// RenderEvents writes the per-round timeline for an arbitrary event slice
// (the same rendering Recorder.Render uses; the flight replayer shares
// it). dropped > 0 appends the truncation footer.
func RenderEvents(w io.Writer, events []radio.Event, dropped int) error {
	byRound := make(map[int][]radio.Event)
	for _, ev := range events {
		byRound[ev.Round] = append(byRound[ev.Round], ev)
	}
	rounds := make([]int, 0, len(byRound))
	for round := range byRound {
		rounds = append(rounds, round)
	}
	sort.Ints(rounds)
	for _, round := range rounds {
		if _, err := fmt.Fprintf(w, "round %d:\n", round); err != nil {
			return err
		}
		evs := byRound[round]
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Kind != evs[j].Kind {
				return evs[i].Kind < evs[j].Kind
			}
			return evs[i].Node < evs[j].Node
		})
		for _, ev := range evs {
			var line string
			switch ev.Kind {
			case radio.EvTransmit:
				line = fmt.Sprintf("  tx    node %-4d ch %d slot %d", ev.Node, ev.Channel, ev.Msg.Slot)
			case radio.EvDeliver:
				line = fmt.Sprintf("  rx    node %-4d <- %-4d ch %d", ev.Node, ev.Peer, ev.Channel)
			case radio.EvCollision:
				line = fmt.Sprintf("  COLL  node %-4d ch %d", ev.Node, ev.Channel)
			case radio.EvNodeFail:
				line = fmt.Sprintf("  DEAD  node %-4d", ev.Node)
			case radio.EvLinkFail:
				line = fmt.Sprintf("  CUT   link %d-%d", ev.Node, ev.Peer)
			case radio.EvLoss:
				line = fmt.Sprintf("  LOST  node %-4d <- %-4d ch %d", ev.Node, ev.Peer, ev.Channel)
			default:
				line = fmt.Sprintf("  %s node %d", KindName(ev.Kind), ev.Node)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d events dropped beyond limit)\n", dropped); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders one line of per-kind counts; a bounded recorder that
// overflowed reports its drop count too.
func (r *Recorder) Summary() string {
	c := r.Counts()
	s := fmt.Sprintf("events=%d tx=%d rx=%d collisions=%d node-fails=%d link-fails=%d (last round %d)",
		len(r.events), c[radio.EvTransmit], c[radio.EvDeliver], c[radio.EvCollision],
		c[radio.EvNodeFail], c[radio.EvLinkFail], r.LastRound())
	if r.dropped > 0 {
		s += fmt.Sprintf(" [%d dropped]", r.dropped)
	}
	return s
}
