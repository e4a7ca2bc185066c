package obs

import (
	"encoding/json"
	"io"
	"sync"

	"dynsens/internal/radio"
)

// EventRecord is the JSONL form of one radio event. Message fields are
// only populated for kinds that carry a message (tx, rx, loss).
type EventRecord struct {
	// ESeq is the engine's monotonic event sequence number; consumers use
	// it to detect gaps and order events across merged streams.
	ESeq    uint64 `json:"eseq"`
	Round   int    `json:"round"`
	Kind    string `json:"kind"`
	Node    int    `json:"node"`
	Peer    *int   `json:"peer,omitempty"`
	Channel int    `json:"ch"`
	Seq     int    `json:"seq,omitempty"`
	Src     int    `json:"src,omitempty"`
	Slot    int    `json:"slot,omitempty"`
	Depth   int    `json:"depth,omitempty"`
	Group   int    `json:"group,omitempty"`
}

// EventSink writes radio events as one JSON object per line — the
// structured counterpart of trace.Recorder's human timeline, meant for
// offline analysis pipelines. Events arrive in the engine's deterministic
// order, so sink output is byte-stable per seed. The sink is safe for
// concurrent hooks (distinct engines may share one sink) and latches the
// first write error instead of failing mid-run.
type EventSink struct {
	mu     sync.Mutex
	w      io.Writer
	events int
	err    error
}

// NewEventSink creates a sink writing JSONL to w.
func NewEventSink(w io.Writer) *EventSink {
	return &EventSink{w: w}
}

// BatchHook returns the callback for radio.Engine.SetTraceBatch or
// broadcast.Options.TraceBatch: one shard buffer is marshaled into a
// single buffer and written under one lock acquisition and one Write
// call, instead of one of each per event.
func (s *EventSink) BatchHook() func([]radio.Event) {
	var buf []byte
	return func(evs []radio.Event) {
		if len(evs) == 0 {
			return
		}
		buf = buf[:0]
		var mErr error
		for i := range evs {
			ev := &evs[i]
			rec := EventRecord{
				ESeq:    ev.Seq,
				Round:   ev.Round,
				Kind:    ev.Kind.String(),
				Node:    int(ev.Node),
				Channel: int(ev.Channel),
			}
			switch ev.Kind {
			case radio.EvDeliver, radio.EvLinkFail, radio.EvLoss:
				p := int(ev.Peer)
				rec.Peer = &p
			}
			switch ev.Kind {
			case radio.EvTransmit, radio.EvDeliver, radio.EvLoss:
				rec.Seq = ev.Msg.Seq
				rec.Src = int(ev.Msg.Src)
				rec.Slot = ev.Msg.Slot
				rec.Depth = ev.Msg.Depth
				rec.Group = ev.Msg.Group
			}
			b, err := json.Marshal(rec)
			if err != nil {
				mErr = err
				break
			}
			buf = append(buf, b...)
			buf = append(buf, '\n')
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.err != nil {
			return
		}
		if mErr != nil {
			s.err = mErr
			return
		}
		if _, err := s.w.Write(buf); err != nil {
			s.err = err
			return
		}
		s.events += len(evs)
	}
}

// Events returns the number of events written so far.
func (s *EventSink) Events() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// Err returns the first write or encode error, if any.
func (s *EventSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
