package flight

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// magic opens every recording file.
var magic = [4]byte{'D', 'S', 'F', 'R'}

// Record type bytes.
const (
	recHeader byte = 1
	recNode   byte = 2
	recEdge   byte = 3
	recDelta  byte = 4
	recPhase  byte = 5
	recEvent  byte = 6
	recFooter byte = 7
)

// --- primitive appenders ----------------------------------------------------

func putUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func putVarint(dst []byte, v int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func putString(dst []byte, s string) []byte {
	dst = putUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func putID(dst []byte, id graph.NodeID) []byte { return putVarint(dst, int64(id)) }

// putRecord frames one record: type byte, payload length, payload.
func putRecord(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = putUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// --- per-record encoders ----------------------------------------------------

func encodeHeader(h Header) []byte {
	var p []byte
	p = putUvarint(p, uint64(h.Version))
	p = putVarint(p, h.Seed)
	p = putUvarint(p, uint64(h.N))
	p = putUvarint(p, uint64(h.Side))
	p = putUvarint(p, uint64(h.Channels))
	p = putID(p, h.Source)
	p = putString(p, h.Protocol)
	p = putUvarint(p, math.Float64bits(h.LossRate))
	p = putVarint(p, h.LossSeed)
	p = putUvarint(p, uint64(h.RingLimit))
	// RNGScheme joined the header in version 2; version 1 recordings must
	// re-encode to their original bytes, so the field is version-gated.
	if h.Version >= 2 {
		p = putString(p, h.RNGScheme)
	}
	return p
}

func encodeNode(n NodeInfo) []byte {
	var p []byte
	p = putID(p, n.ID)
	p = append(p, n.Role)
	p = putID(p, n.Parent)
	p = putUvarint(p, uint64(n.Depth))
	p = putUvarint(p, uint64(n.BSlot))
	p = putUvarint(p, uint64(n.LSlot))
	p = putUvarint(p, uint64(n.USlot))
	return p
}

func encodeEdge(e Edge) []byte {
	var p []byte
	p = putID(p, e.U)
	return putID(p, e.V)
}

func encodeDelta(d Delta) []byte {
	var p []byte
	p = append(p, byte(d.Kind))
	p = putID(p, d.Node)
	p = putID(p, d.Peer)
	p = putUvarint(p, uint64(d.Round))
	flags := byte(0)
	if d.RootChanged {
		flags = 1
	}
	p = append(p, flags)
	p = putUvarint(p, uint64(len(d.Reinserted)))
	for _, id := range d.Reinserted {
		p = putID(p, id)
	}
	p = putUvarint(p, uint64(len(d.Dropped)))
	for _, id := range d.Dropped {
		p = putID(p, id)
	}
	return p
}

func encodePhase(ph Phase) []byte {
	var p []byte
	p = putString(p, ph.Name)
	p = putUvarint(p, uint64(ph.Lo))
	p = putUvarint(p, uint64(ph.Hi))
	return p
}

func encodeEvent(ev radio.Event) []byte {
	var p []byte
	p = putUvarint(p, ev.Seq)
	p = putUvarint(p, uint64(ev.Round))
	p = append(p, byte(ev.Kind))
	p = putID(p, ev.Node)
	p = putID(p, ev.Peer)
	p = putUvarint(p, uint64(ev.Channel))
	m := ev.Msg
	p = putVarint(p, int64(m.Seq))
	p = putID(p, m.Src)
	p = putID(p, m.From)
	p = putID(p, m.Dst)
	p = putVarint(p, int64(m.Slot))
	p = putVarint(p, int64(m.Depth))
	p = putVarint(p, int64(m.MaxSlot))
	p = putVarint(p, int64(m.Height))
	p = putVarint(p, int64(m.Group))
	p = putVarint(p, m.Value)
	return p
}

func encodeFooter(f Footer) []byte {
	var p []byte
	p = putUvarint(p, uint64(f.ScheduleLen))
	p = putUvarint(p, uint64(f.Rounds))
	p = putUvarint(p, uint64(f.Deliveries))
	p = putUvarint(p, uint64(f.Collisions))
	p = putUvarint(p, uint64(f.Transmissions))
	p = putUvarint(p, uint64(f.Losses))
	p = putUvarint(p, uint64(f.Received))
	p = putUvarint(p, uint64(f.Audience))
	p = putUvarint(p, uint64(f.CompletionRound))
	p = putUvarint(p, uint64(f.DroppedEvents))
	return p
}

// Encode writes the recording in canonical section order (header, nodes,
// edges, deltas, phases, events, footer). Decode∘Encode is the identity on
// recordings, and Encode∘Decode is a byte fixpoint on its own output.
func (r *Recording) Encode(w io.Writer) error {
	var out []byte
	out = append(out, magic[:]...)
	out = putRecord(out, recHeader, encodeHeader(r.Header))
	for i := range r.Nodes {
		out = putRecord(out, recNode, encodeNode(r.Nodes[i]))
	}
	for _, e := range r.Edges {
		out = putRecord(out, recEdge, encodeEdge(e))
	}
	for i := range r.Deltas {
		out = putRecord(out, recDelta, encodeDelta(r.Deltas[i]))
	}
	for i := range r.Phases {
		out = putRecord(out, recPhase, encodePhase(r.Phases[i]))
	}
	for i := range r.Events {
		out = putRecord(out, recEvent, encodeEvent(r.Events[i]))
	}
	if r.Footer != nil {
		out = putRecord(out, recFooter, encodeFooter(*r.Footer))
	}
	_, err := w.Write(out)
	return err
}

// --- Writer -----------------------------------------------------------------

// Writer builds a recording incrementally. Records are buffered per
// section and written in canonical order on Close, which lets the event
// section operate as a bounded ring for long soak runs: when the ring is
// full, the oldest event is evicted and counted in the footer's
// DroppedEvents. A Writer is for a single run and is not safe for
// concurrent use (the radio engine's trace hook is single-threaded).
type Writer struct {
	dst io.Writer

	header    *Header
	nodes     []byte
	edges     []byte
	deltas    []byte
	phases    []byte
	events    [][]byte
	ringCap   int
	ringStart int
	dropped   int
	footer    *Footer
	closed    bool
}

// NewWriter creates an unbounded writer emitting to w on Close.
func NewWriter(w io.Writer) *Writer { return &Writer{dst: w} }

// NewRingWriter creates a writer that keeps only the last ringCap radio
// events (everything else — topology, deltas, phases — is kept in full).
func NewRingWriter(w io.Writer, ringCap int) *Writer {
	if ringCap < 1 {
		ringCap = 1
	}
	return &Writer{dst: w, ringCap: ringCap}
}

// WriteHeader records the run header; it must be called exactly once.
// Unset fields get the current defaults: format Version and — for v2+
// headers — the counter-stream RNG scheme, the only scheme current engines
// produce.
func (w *Writer) WriteHeader(h Header) {
	if h.Version == 0 {
		h.Version = Version
	}
	if h.Version >= 2 && h.RNGScheme == "" {
		h.RNGScheme = RNGSchemeCounter
	}
	if w.ringCap > 0 {
		h.RingLimit = w.ringCap
	}
	w.header = &h
}

// WriteNode records one node's structural state.
func (w *Writer) WriteNode(n NodeInfo) {
	w.nodes = putRecord(w.nodes, recNode, encodeNode(n))
}

// WriteEdge records one G-edge.
func (w *Writer) WriteEdge(u, v graph.NodeID) {
	w.edges = putRecord(w.edges, recEdge, encodeEdge(Edge{U: u, V: v}))
}

// WriteDelta records one topology/churn delta.
func (w *Writer) WriteDelta(d Delta) {
	w.deltas = putRecord(w.deltas, recDelta, encodeDelta(d))
}

// WritePhase records one protocol phase marker.
func (w *Writer) WritePhase(p Phase) {
	w.phases = putRecord(w.phases, recPhase, encodePhase(p))
}

// WriteEvent records one radio event, evicting the oldest when the ring
// is full.
func (w *Writer) WriteEvent(ev radio.Event) {
	rec := putRecord(nil, recEvent, encodeEvent(ev))
	if w.ringCap > 0 && len(w.events) == w.ringCap {
		w.events[w.ringStart] = rec
		w.ringStart = (w.ringStart + 1) % w.ringCap
		w.dropped++
		return
	}
	w.events = append(w.events, rec)
}

// BatchHook returns the callback for radio.Engine.SetTraceBatch or
// broadcast.Options.TraceBatch: one call per shard buffer per phase per
// round. Events are encoded immediately (the engine reuses the batch
// slice). The Writer is not goroutine-safe, but it does not need to be for
// engine hooks: the radio kernel emits all events from one goroutine (its
// serial stitch steps) at any worker count, and the recorded byte stream
// is identical at any radio.Engine.SetWorkers value.
func (w *Writer) BatchHook() func([]radio.Event) {
	return func(evs []radio.Event) {
		for i := range evs {
			w.WriteEvent(evs[i])
		}
	}
}

// SetFooter stages the run outcome to be written on Close. The ring drop
// count is filled in by Close.
func (w *Writer) SetFooter(f Footer) { w.footer = &f }

// Dropped returns how many events the ring has evicted so far.
func (w *Writer) Dropped() int { return w.dropped }

// Close emits the buffered recording to the destination writer in
// canonical order and closes the destination if it is an io.Closer.
// Close is idempotent; only the first call writes.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.header == nil {
		return fmt.Errorf("flight: Close before WriteHeader")
	}
	var out []byte
	out = append(out, magic[:]...)
	out = putRecord(out, recHeader, encodeHeader(*w.header))
	out = append(out, w.nodes...)
	out = append(out, w.edges...)
	out = append(out, w.deltas...)
	out = append(out, w.phases...)
	for i := 0; i < len(w.events); i++ {
		out = append(out, w.events[(w.ringStart+i)%len(w.events)]...)
	}
	if w.footer != nil {
		f := *w.footer
		f.DroppedEvents = w.dropped
		out = putRecord(out, recFooter, encodeFooter(f))
	}
	if _, err := w.dst.Write(out); err != nil {
		return fmt.Errorf("flight: write recording: %w", err)
	}
	if c, ok := w.dst.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return fmt.Errorf("flight: close recording: %w", err)
		}
	}
	return nil
}
