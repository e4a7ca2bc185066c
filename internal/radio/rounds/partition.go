package rounds

import "dynsens/internal/graph"

// Partition silences every link between Side and the rest of the network
// during rounds [From, To] (inclusive, 1-based), then heals. A frame a
// partition swallows is a loss for that (listener, transmitter) pair — the
// radio model's "the listener never hears it" — not a link cut: recorded
// cuts are permanent, and a healed link would make later deliveries look
// inconsistent to an offline verifier.
type Partition struct {
	From, To int
	Side     []graph.NodeID
}

// Partitions is the run-time form of a partition script: one membership set
// per window. A nil *Partitions suppresses nothing. Every round driver
// applies it the same way: a listener's audible candidates that an active
// window cuts off become losses in ascending candidate order, before any
// loss coin is drawn, and the survivors go on to Resolve.
type Partitions struct {
	spans []Partition
	side  []map[graph.NodeID]bool
}

// NewPartitions compiles a partition script; it returns nil for an empty
// one.
func NewPartitions(spans []Partition) *Partitions {
	if len(spans) == 0 {
		return nil
	}
	p := &Partitions{spans: spans, side: make([]map[graph.NodeID]bool, len(spans))}
	for i, s := range spans {
		p.side[i] = make(map[graph.NodeID]bool, len(s.Side))
		for _, id := range s.Side {
			p.side[i][id] = true
		}
	}
	return p
}

// Active reports whether any window is up during round r, so hot resolve
// loops can skip the per-candidate Cuts lookup on partition-free rounds.
func (p *Partitions) Active(r int) bool {
	if p == nil {
		return false
	}
	for _, s := range p.spans {
		if r >= s.From && r <= s.To {
			return true
		}
	}
	return false
}

// Cuts reports whether a window active during round r separates u from v.
func (p *Partitions) Cuts(r int, u, v graph.NodeID) bool {
	if p == nil {
		return false
	}
	for i, s := range p.spans {
		if r < s.From || r > s.To {
			continue
		}
		if p.side[i][u] != p.side[i][v] {
			return true
		}
	}
	return false
}
