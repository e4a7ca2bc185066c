package trace

import (
	"strings"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func TestRecorderCollectsBroadcast(t *testing.T) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(1, 8, 50))
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.Build(d.Graph(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(0)
	m, err := net.Broadcast(net.Root(), broadcast.Options{TraceBatch: rec.BatchHook()})
	if err != nil || !m.Completed {
		t.Fatalf("broadcast: %v %s", err, m)
	}
	counts := rec.Counts()
	if counts[radio.EvTransmit] != m.Transmissions {
		t.Fatalf("tx events %d != metric %d", counts[radio.EvTransmit], m.Transmissions)
	}
	if counts[radio.EvDeliver] == 0 {
		t.Fatal("no delivery events recorded")
	}
	if rec.LastRound() == 0 || rec.LastRound() > m.Rounds {
		t.Fatalf("last round %d vs %d", rec.LastRound(), m.Rounds)
	}
	var b strings.Builder
	if err := rec.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "round 1:") || !strings.Contains(out, "tx") {
		t.Fatalf("render malformed:\n%s", out[:min(400, len(out))])
	}
	if rec.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestRecorderLimitAndReset(t *testing.T) {
	rec := NewRecorder(2)
	hook := rec.BatchHook()
	for i := 0; i < 5; i++ {
		hook([]radio.Event{{Round: i + 1, Kind: radio.EvTransmit}})
	}
	if rec.Len() != 2 || rec.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", rec.Len(), rec.Dropped())
	}
	var b strings.Builder
	if err := rec.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dropped") {
		t.Fatal("dropped note missing")
	}
	rec.Reset()
	if rec.Len() != 0 || rec.Dropped() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestChannelLoad(t *testing.T) {
	rec := NewRecorder(0)
	rec.BatchHook()([]radio.Event{
		{Round: 1, Kind: radio.EvTransmit, Channel: 0},
		{Round: 1, Kind: radio.EvTransmit, Channel: 1},
		{Round: 2, Kind: radio.EvTransmit, Channel: 1},
		{Round: 2, Kind: radio.EvDeliver, Channel: 1},
	})
	load := rec.ChannelLoad()
	if load[0] != 1 || load[1] != 2 {
		t.Fatalf("load = %v", load)
	}
}

func TestRenderAllKinds(t *testing.T) {
	rec := NewRecorder(0)
	rec.BatchHook()([]radio.Event{
		{Round: 1, Kind: radio.EvTransmit, Node: 1},
		{Round: 1, Kind: radio.EvDeliver, Node: 2, Peer: 1},
		{Round: 2, Kind: radio.EvCollision, Node: 3},
		{Round: 2, Kind: radio.EvNodeFail, Node: 4},
		{Round: 3, Kind: radio.EvLinkFail, Node: 5, Peer: 6},
	})
	var b strings.Builder
	if err := rec.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"tx", "rx", "COLL", "DEAD", "CUT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestKindName(t *testing.T) {
	if KindName(radio.EvTransmit) != "tx" || KindName(radio.EvLinkFail) != "link-fail" {
		t.Fatal("kind names wrong")
	}
	if KindName(radio.EventKind(99)) == "" {
		t.Fatal("unknown kind should format")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
