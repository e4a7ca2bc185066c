package radio

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dynsens/internal/graph"
)

// TestStampSeqStitchProperty is the Seq-stitch property test: for random
// event streams cut at random shard boundaries, prefix-summing the chunk
// lengths into bases and renumbering each chunk with stampSeq must yield —
// on the concatenation, in chunk order — exactly the contiguous sequence a
// serial stamper would have assigned, from any starting cursor.
func TestStampSeqStitchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		total := rng.Intn(400)
		start := uint64(rng.Intn(1000))
		// Events ordered as the kernel stages them: ascending transmitter
		// node within the stream (the stitch must preserve, not sort).
		evs := make([]Event, total)
		for i := range evs {
			evs[i] = Event{Kind: EvTransmit, Node: graph.NodeID(i), Round: 1}
		}
		// Random shard split: random cut points, empty chunks included.
		nChunks := rng.Intn(8) + 1
		cuts := make([]int, 0, nChunks+1)
		cuts = append(cuts, 0)
		for i := 1; i < nChunks; i++ {
			cuts = append(cuts, rng.Intn(total+1))
		}
		cuts = append(cuts, total)
		// Chunks must partition in order; sort the interior cut points.
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		cursor := start
		for c := 0; c+1 < len(cuts); c++ {
			chunk := evs[cuts[c]:cuts[c+1]]
			stampSeq(chunk, cursor)
			cursor += uint64(len(chunk))
		}
		if cursor != start+uint64(total) {
			t.Fatalf("trial %d: cursor advanced to %d, want %d", trial, cursor, start+uint64(total))
		}
		for i := range evs {
			if want := start + 1 + uint64(i); evs[i].Seq != want {
				t.Fatalf("trial %d: event %d (node %d) got Seq %d, want %d (chunks %v)",
					trial, i, evs[i].Node, evs[i].Seq, want, cuts)
			}
		}
	}
}

// TestEngineEquivalenceDenseBitset drives a graph big enough for real
// multi-word bitsets (n=150 → 3 words) with a hub star plus random chords,
// so listeners split between the dense neighbor-row path (degree ≥ words)
// and the sparse bit-test walk — both under loss, both of which must match
// the reference loop byte for byte.
func TestEngineEquivalenceDenseBitset(t *testing.T) {
	s := scenario{seed: 31, n: 150, extraEdge: 600, horizon: 12, rounds: 14, lossRate: 0.3}
	eng := s.build(t, Config{})
	k := eng.newKernel()
	if k.denseRows == nil {
		t.Fatalf("scenario does not trigger dense neighbor rows (txWords=%d)", k.txWords)
	}
	checkEquivalence(t, s, equivalenceWorkers())
}

// chanProg exercises resolve's channel dispatch: it cycles transmissions
// and listens through an in-range channel, a channel past the bitset table
// (maxBitsetChannels), and a negative channel, so the action-walk fallback
// runs alongside the bitset paths in one trace.
type chanProg struct {
	id     graph.NodeID
	budget int
}

func (p *chanProg) Act(round int) Action {
	if round > p.budget {
		return Action{Kind: Sleep}
	}
	chans := [3]Channel{1, maxBitsetChannels + 7, -4}
	ch := chans[round%3]
	if (int(p.id)+round)%2 == 0 {
		return Action{Kind: Transmit, Channel: ch, Msg: Message{Seq: round, Src: p.id}}
	}
	return Action{Kind: Listen, Channel: ch}
}

func (p *chanProg) Deliver(round int, m Message) {}

func (p *chanProg) Done() bool { return false }

// TestEngineEquivalenceOutOfRangeChannels pins the unindexed-channel
// fallback: channels outside [0, maxBitsetChannels) never enter the bitset
// table, and their listeners must still hear exactly what the reference
// loop says, loss coins included.
func TestEngineEquivalenceOutOfRangeChannels(t *testing.T) {
	build := func(cfg Config) *Engine {
		rng := rand.New(rand.NewSource(91))
		g := graph.New()
		g.AddNode(0)
		for i := 1; i < 60; i++ {
			_ = g.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
		}
		for i := 0; i < 120; i++ {
			u, v := rng.Intn(60), rng.Intn(60)
			if u != v {
				_ = g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
		progs := make(map[graph.NodeID]Program, 60)
		for _, id := range g.Nodes() {
			progs[id] = &chanProg{id: id, budget: 12}
		}
		cfg.LossRate, cfg.LossSeed = 0.25, 433
		eng, err := NewEngine(g, progs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	wantRes, wantTrace := runTraced(build, 0, 12, true)
	if wantRes.Deliveries == 0 {
		t.Fatal("scenario delivers nothing; fallback path not exercised")
	}
	for _, w := range equivalenceWorkers() {
		gotRes, gotTrace := runTraced(build, w, 12, false)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("workers=%d: result diverges\n got %+v\nwant %+v", w, gotRes, wantRes)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("workers=%d: trace diverges", w)
		}
	}
}

// TestEngineWorkersLargeSmoke is the fast large-n smoke the CI race matrix
// runs (its name matches the EngineWorkers pattern): a 200k-node sparse
// graph for a few rounds, asserting the kernel at NumCPU workers matches
// workers=1 exactly — Result and FNV-hashed trace. -short skips it.
func TestEngineWorkersLargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n smoke skipped in -short")
	}
	const n = 200_000
	// One shared topology: engines only read the graph, and the runs are
	// sequential. Programs are rebuilt per run (they carry state).
	rng := rand.New(rand.NewSource(5))
	g := graph.New()
	g.AddNode(0)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
	}
	build := func(cfg Config) *Engine {
		progs := make(map[graph.NodeID]Program, n)
		for _, id := range g.Nodes() {
			progs[id] = &chanProg{id: id, budget: 3}
		}
		cfg.LossRate, cfg.LossSeed = 0.1, 99
		eng, err := NewEngine(g, progs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	run := func(workers int) (Result, uint64) {
		h := fnv.New64a()
		var rec [10]uint64
		var buf [80]byte
		eng := build(Config{Workers: workers, TraceBatch: func(evs []Event) {
			for _, ev := range evs {
				rec = [10]uint64{ev.Seq, uint64(ev.Round), uint64(ev.Kind),
					uint64(ev.Node), uint64(ev.Peer), uint64(ev.Channel),
					uint64(ev.Msg.Seq), uint64(ev.Msg.Src), uint64(ev.Msg.From), uint64(ev.Msg.Slot)}
				for i, v := range rec {
					binary.LittleEndian.PutUint64(buf[i*8:], v)
				}
				h.Write(buf[:])
			}
		}})
		res := eng.Run(3)
		return res, h.Sum64()
	}
	wantRes, wantHash := run(1)
	wN := runtime.NumCPU()
	if wN < 4 {
		wN = 4
	}
	gotRes, gotHash := run(wN)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("workers=%d result diverges from workers=1", wN)
	}
	if gotHash != wantHash {
		t.Fatalf("workers=%d trace hash %x, workers=1 %x", wN, gotHash, wantHash)
	}
}
