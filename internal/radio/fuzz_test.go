package radio

import (
	"math/rand"
	"testing"

	"dynsens/internal/graph"
)

// chaosProg takes pseudo-random actions every round, recording what it did.
type chaosProg struct {
	rng       *rand.Rand
	horizon   int
	listens   int
	transmits int
	delivered int
	cur       int
}

func (p *chaosProg) Act(round int) Action {
	p.cur = round
	switch p.rng.Intn(3) {
	case 0:
		return SleepAction()
	case 1:
		p.listens++
		return ListenOn(Channel(p.rng.Intn(2)))
	default:
		p.transmits++
		return TransmitOn(Channel(p.rng.Intn(2)), Message{Seq: round})
	}
}

func (p *chaosProg) Deliver(int, Message) { p.delivered++ }
func (p *chaosProg) Done() bool           { return p.cur >= p.horizon }

// FuzzEngineAccounting drives random programs over a random connected graph
// and checks the engine's bookkeeping invariants: awake = listens +
// transmits per node, deliveries bounded by total listens, and trace event
// counts matching the result counters.
func FuzzEngineAccounting(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(10))
	f.Add(int64(42), uint8(20), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, roundsRaw uint8) {
		n := int(nRaw%20) + 2
		horizon := int(roundsRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		g.AddNode(0)
		for i := 1; i < n; i++ {
			_ = g.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
		}
		progs := make(map[graph.NodeID]Program, n)
		chaos := make(map[graph.NodeID]*chaosProg, n)
		for _, id := range g.Nodes() {
			c := &chaosProg{rng: rand.New(rand.NewSource(rng.Int63())), horizon: horizon}
			chaos[id] = c
			progs[id] = c
		}
		var txEvents, rxEvents, collEvents int
		eng, err := NewEngine(g, progs, Config{TraceBatch: func(evs []Event) {
			for _, ev := range evs {
				switch ev.Kind {
				case EvTransmit:
					txEvents++
				case EvDeliver:
					rxEvents++
				case EvCollision:
					collEvents++
				}
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run(horizon)

		totalListens, totalTransmits, totalDelivered := 0, 0, 0
		for id, c := range chaos {
			if res.Awake[id] != c.listens+c.transmits {
				t.Fatalf("node %d awake %d != listens %d + transmits %d",
					id, res.Awake[id], c.listens, c.transmits)
			}
			if res.Listens[id] != c.listens || res.Transmits[id] != c.transmits {
				t.Fatalf("node %d split counts diverge", id)
			}
			totalListens += c.listens
			totalTransmits += c.transmits
			totalDelivered += c.delivered
		}
		if res.Transmissions != totalTransmits || res.Transmissions != txEvents {
			t.Fatalf("transmissions %d vs program %d vs events %d",
				res.Transmissions, totalTransmits, txEvents)
		}
		if res.Deliveries != totalDelivered || res.Deliveries != rxEvents {
			t.Fatalf("deliveries %d vs program %d vs events %d",
				res.Deliveries, totalDelivered, rxEvents)
		}
		if res.Collisions != collEvents {
			t.Fatalf("collisions %d vs events %d", res.Collisions, collEvents)
		}
		if res.Deliveries+res.Collisions > totalListens {
			t.Fatalf("more receptions+collisions (%d) than listens (%d)",
				res.Deliveries+res.Collisions, totalListens)
		}
		if res.Rounds > horizon {
			t.Fatalf("ran %d rounds past horizon %d", res.Rounds, horizon)
		}
	})
}
