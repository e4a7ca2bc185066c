// Package rounds is the transport-agnostic core of the radio model's round
// semantics: the counter-based loss coins, the single-listener collision
// resolution rule, the failure schedule, and healable partition windows.
// The executable spec (radio.Engine.RunReference) and the one round loop
// (the three-phase kernel in internal/radio, kernel.go) both consume it, so
// they resolve every round identically, coin for coin and event for event —
// whether the kernel's nodes are in-process Programs or remote actors
// behind internal/dist's frame barriers. The package deliberately depends
// only on internal/graph.
package rounds

import "dynsens/internal/graph"

// Counter-based loss streams.
//
// The loss model needs one coin per (listener, transmitter, round) frame,
// drawn identically by the reference loop and by the kernel at any worker
// count. A single shared *rand.Rand forces a global draw order — that was
// the kernel's serial merge wall — so coins instead come from splitmix64
// counter streams keyed by (lossSeed, listener, round): any shard can
// compute any listener's coins locally, with zero cross-shard ordering
// dependency, and both drivers consume each stream in the same in-stream order
// (ascending candidate-transmitter order, the reference loop's order).
// Streams for different (listener, round) pairs never interact, so the
// scheme is deterministic per seed by construction rather than by
// serialization.
//
// splitmix64 (Steele, Lea & Flood; the seeding generator of
// java.util.SplittableRandom and xoshiro) is used both as the key mixer
// and the per-draw generator: a 64-bit Weyl sequence with increment
// smGamma, finalized by mix64. It is not cryptographic — it only has to be
// statistically flat and cheap enough to live inside the resolve phase's
// per-candidate loop.

// smGamma is the splitmix64 Weyl-sequence increment (the golden ratio in
// 0.64 fixed point).
const smGamma = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// LossStream is one (listener, round) coin stream. The zero value is not a
// valid stream; build one with NewLossStream.
type LossStream struct {
	s uint64
}

// NewLossStream keys the stream. Node and round enter through separate
// mixing stages (not a plain xor of the raw values) so that nearby
// (node, round) pairs — the common case: every node, every round — land in
// unrelated parts of the sequence space.
func NewLossStream(seed uint64, node graph.NodeID, round int) LossStream {
	s := mix64(seed + smGamma)
	s = mix64(s ^ (uint64(int64(node))*0xA24BAED4963EE407 + smGamma))
	s = mix64(s ^ (uint64(int64(round))*0x9FB21C651E98DF25 + smGamma))
	return LossStream{s: s}
}

// Next returns the stream's next coin, uniform in [0, 1). The k-th call
// for a given key is the same value in every round driver — the candidate
// index is the counter.
func (l *LossStream) Next() float64 {
	l.s += smGamma
	return float64(mix64(l.s)>>11) / (1 << 53)
}

// Verdict classifies what one listener hears in one round after the loss
// coins fall: nothing, exactly one frame (a delivery), or two or more
// simultaneous frames (a collision — the model has no collision detection,
// the listener just gets noise).
type Verdict int

const (
	// Silence: no frame survived; the listener hears nothing.
	Silence Verdict = iota
	// Delivered: exactly one frame survived; the listener receives it.
	Delivered
	// Collided: two or more frames survived and jam each other.
	Collided
)

// Resolve applies the radio model's reception rule to one listener: draw
// one loss coin per candidate frame, in candidate order, from the
// listener's (seed, listener, round) stream, then classify the survivors.
// candidates is the number of audible transmitting neighbors (already
// filtered for adjacency and live links, in ascending transmitter order —
// the coin-order contract every driver shares). Indices of candidates the
// loss model dropped are appended to lost (pass a reused buffer; losses
// precede the outcome in the event order). winner is the index of the
// surviving candidate when the verdict is Delivered, -1 otherwise. With
// lossRate == 0 the stream is never read, so a zero-value LossStream is
// fine.
func Resolve(candidates int, lossRate float64, st *LossStream, lost []int32) (verdict Verdict, winner int32, lostOut []int32) {
	heard := 0
	winner = -1
	for c := int32(0); c < int32(candidates); c++ {
		if lossRate > 0 && st.Next() < lossRate {
			lost = append(lost, c)
			continue
		}
		if heard == 0 {
			winner = c
		}
		heard++
	}
	switch {
	case heard == 1:
		return Delivered, winner, lost
	case heard > 1:
		return Collided, -1, lost
	}
	return Silence, -1, lost
}
