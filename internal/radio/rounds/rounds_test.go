package rounds

import (
	"testing"

	"dynsens/internal/graph"
)

// oldMix64 and oldStream replicate the pre-extraction coin scheme from
// internal/radio/rng.go verbatim: moving the stream into this package must
// not change a single coin, or every seeded recording in the wild silently
// re-rolls its losses.
func oldMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func oldStream(seed uint64, node graph.NodeID, round int) uint64 {
	const gamma = 0x9E3779B97F4A7C15
	s := oldMix64(seed + gamma)
	s = oldMix64(s ^ (uint64(int64(node))*0xA24BAED4963EE407 + gamma))
	s = oldMix64(s ^ (uint64(int64(round))*0x9FB21C651E98DF25 + gamma))
	return s
}

func TestLossStreamMatchesLegacyScheme(t *testing.T) {
	const gamma = 0x9E3779B97F4A7C15
	for _, tc := range []struct {
		seed  uint64
		node  graph.NodeID
		round int
	}{
		{0, 0, 0},
		{1, 2, 3},
		{0xDEADBEEF, 41, 17},
		{^uint64(0), -1, 1 << 20},
	} {
		st := NewLossStream(tc.seed, tc.node, tc.round)
		s := oldStream(tc.seed, tc.node, tc.round)
		for k := 0; k < 16; k++ {
			s += gamma
			want := float64(oldMix64(s)>>11) / (1 << 53)
			if got := st.Next(); got != want {
				t.Fatalf("seed=%d node=%d round=%d draw %d: got %v, want %v",
					tc.seed, tc.node, tc.round, k, got, want)
			}
		}
	}
}

func TestLossStreamRange(t *testing.T) {
	st := NewLossStream(7, 3, 9)
	for i := 0; i < 1000; i++ {
		if v := st.Next(); v < 0 || v >= 1 {
			t.Fatalf("draw %d out of [0,1): %v", i, v)
		}
	}
}

func TestResolveNoLoss(t *testing.T) {
	var st LossStream // never read when lossRate == 0
	v, w, lost := Resolve(0, 0, &st, nil)
	if v != Silence || w != -1 || len(lost) != 0 {
		t.Fatalf("0 candidates: got (%v, %d, %v)", v, w, lost)
	}
	v, w, lost = Resolve(1, 0, &st, nil)
	if v != Delivered || w != 0 || len(lost) != 0 {
		t.Fatalf("1 candidate: got (%v, %d, %v)", v, w, lost)
	}
	v, w, lost = Resolve(3, 0, &st, nil)
	if v != Collided || w != -1 || len(lost) != 0 {
		t.Fatalf("3 candidates: got (%v, %d, %v)", v, w, lost)
	}
}

func TestResolveAllLost(t *testing.T) {
	st := NewLossStream(1, 1, 1)
	v, w, lost := Resolve(4, 1-1e-12, &st, nil)
	if v != Silence || w != -1 {
		t.Fatalf("got (%v, %d), want all frames lost", v, w)
	}
	if len(lost) != 4 {
		t.Fatalf("lost %v, want all 4 candidates", lost)
	}
	for i, c := range lost {
		if c != int32(i) {
			t.Fatalf("lost indices %v not in candidate order", lost)
		}
	}
}

// TestResolveCoinOrder pins the coin-order contract: Resolve draws exactly
// one coin per candidate, in candidate order, so the k-th candidate's fate
// depends only on the stream's k-th draw.
func TestResolveCoinOrder(t *testing.T) {
	const seed, node, round = 42, 5, 7
	const rate = 0.5
	ref := NewLossStream(seed, node, round)
	var wantLost []int32
	survivors := 0
	firstSurvivor := int32(-1)
	for c := int32(0); c < 8; c++ {
		if ref.Next() < rate {
			wantLost = append(wantLost, c)
			continue
		}
		if survivors == 0 {
			firstSurvivor = c
		}
		survivors++
	}
	st := NewLossStream(seed, node, round)
	v, w, lost := Resolve(8, rate, &st, nil)
	if len(lost) != len(wantLost) {
		t.Fatalf("lost %v, want %v", lost, wantLost)
	}
	for i := range lost {
		if lost[i] != wantLost[i] {
			t.Fatalf("lost %v, want %v", lost, wantLost)
		}
	}
	switch {
	case survivors == 1 && (v != Delivered || w != firstSurvivor):
		t.Fatalf("got (%v, %d), want (Delivered, %d)", v, w, firstSurvivor)
	case survivors > 1 && v != Collided:
		t.Fatalf("got %v, want Collided", v)
	case survivors == 0 && v != Silence:
		t.Fatalf("got %v, want Silence", v)
	}
}

func TestResolveReusesBuffer(t *testing.T) {
	buf := make([]int32, 0, 8)
	st := NewLossStream(1, 2, 3)
	_, _, lost := Resolve(4, 1-1e-12, &st, buf)
	if len(lost) == 0 || &lost[0] != &buf[:1][0] {
		t.Fatalf("Resolve did not append into the caller's buffer")
	}
}

func TestScheduleBuckets(t *testing.T) {
	s := NewSchedule(
		map[graph.NodeID]int{4: 3, 2: 3, 9: 5, 7: 0},
		map[Link]int{MkLink(3, 1): 2, MkLink(1, 2): 2, MkLink(5, 6): -1},
	)
	if got := s.NodeFails(3); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("NodeFails(3) = %v, want [2 4]", got)
	}
	if got := s.NodeFails(1); len(got) != 0 {
		t.Fatalf("NodeFails(1) = %v, want empty", got)
	}
	// Round 0 deaths and cuts are dead-from-start: no bucket, no event.
	if got := s.NodeFails(0); len(got) != 0 {
		t.Fatalf("NodeFails(0) = %v, want empty (no event for pre-run deaths)", got)
	}
	if got := s.LinkFails(-1); len(got) != 0 {
		t.Fatalf("LinkFails(-1) = %v, want empty (no event for pre-run cuts)", got)
	}
	if got := s.NodeFails(5); len(got) != 1 || got[0] != 9 {
		t.Fatalf("NodeFails(5) = %v, want [9]", got)
	}
	if got := s.LinkFails(2); len(got) != 2 || got[0] != MkLink(1, 2) || got[1] != MkLink(1, 3) {
		t.Fatalf("LinkFails(2) = %v, want [{1 2} {1 3}]", got)
	}
	if empty := NewSchedule(nil, nil); len(empty.NodeFails(1)) != 0 || len(empty.LinkFails(1)) != 0 {
		t.Fatal("empty schedule misbehaves")
	}
}

func TestScheduleKill(t *testing.T) {
	s := NewSchedule(map[graph.NodeID]int{5: 8}, nil)
	// New death lands sorted in its bucket.
	s.Kill(3, 4)
	s.Kill(1, 4)
	s.Kill(2, 4)
	if got := s.NodeFails(4); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("NodeFails(4) = %v, want [1 2 3]", got)
	}
	// Earlier death wins and leaves the old bucket.
	s.Kill(5, 6)
	if got := s.NodeFails(8); len(got) != 0 {
		t.Fatalf("node 5 still in its old bucket: %v", got)
	}
	if got := s.NodeFails(6); len(got) != 1 || got[0] != 5 {
		t.Fatalf("NodeFails(6) = %v, want [5]", got)
	}
	// Later (or equal) death is a no-op.
	s.Kill(5, 9)
	s.Kill(5, 6)
	if got := s.NodeFails(9); len(got) != 0 {
		t.Fatalf("Kill moved a death later: NodeFails(9) = %v", got)
	}
	if got := s.NodeFails(6); len(got) != 1 {
		t.Fatalf("NodeFails(6) = %v after repeated kills, want [5]", got)
	}
}

func TestPartitions(t *testing.T) {
	var none *Partitions
	if NewPartitions(nil) != nil || none.Active(1) || none.Cuts(1, 0, 1) {
		t.Fatal("empty partition script suppresses something")
	}
	p := NewPartitions([]Partition{
		{From: 2, To: 3, Side: []graph.NodeID{0, 1}},
		{From: 5, To: 5, Side: []graph.NodeID{7}},
	})
	for r, want := range map[int]bool{1: false, 2: true, 3: true, 4: false, 5: true, 6: false} {
		if p.Active(r) != want {
			t.Errorf("Active(%d) = %v, want %v", r, !want, want)
		}
	}
	cases := []struct {
		r    int
		u, v graph.NodeID
		want bool
	}{
		{2, 0, 2, true},  // across the first cut
		{3, 2, 1, true},  // either direction
		{2, 0, 1, false}, // same side
		{2, 2, 3, false}, // same (outer) side
		{4, 0, 2, false}, // healed
		{5, 7, 0, true},  // second window
		{5, 0, 2, false}, // first window is down
		{1, 7, 0, false}, // before any window
	}
	for _, c := range cases {
		if got := p.Cuts(c.r, c.u, c.v); got != c.want {
			t.Errorf("Cuts(%d, %d, %d) = %v, want %v", c.r, c.u, c.v, got, c.want)
		}
	}
}
