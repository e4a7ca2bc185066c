package joinproto

import (
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/geom"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func TestBootstrapSmall(t *testing.T) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(41, 8, 30))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bootstrap(d, core.Config{}, 5, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.Size() != 30 {
		t.Fatalf("built %d nodes", res.Network.Size())
	}
	if len(res.Joins) != 29 || res.TotalRounds <= 0 {
		t.Fatalf("join accounting: %d joins, %d rounds", len(res.Joins), res.TotalRounds)
	}
	// The self-built network must broadcast successfully.
	m, err := res.Network.Broadcast(res.Network.Root(), broadcast.Options{})
	if err != nil || !m.Completed {
		t.Fatalf("broadcast on bootstrapped network: %v %s", err, m)
	}
	// Discovery misses should be rare.
	if res.IncompleteDiscoveries > 3 {
		t.Fatalf("%d incomplete discoveries out of 29", res.IncompleteDiscoveries)
	}
}

func TestBootstrapMatchesStructuralShape(t *testing.T) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(43, 8, 25))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bootstrap(d, core.Config{}, 7, radio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	structural, err := core.Build(d.Graph(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// When every discovery is complete, the protocol-built structure is
	// identical to the structural one (same insertion order, same rules).
	if res.IncompleteDiscoveries > 0 {
		t.Skip("discovery missed edges; structures may legitimately differ")
	}
	ps := res.Network.Stats()
	ss := structural.Stats()
	if ps.Clusters != ss.Clusters || ps.BackboneSize != ss.BackboneSize || ps.Height != ss.Height {
		t.Fatalf("structures differ: protocol %+v vs structural %+v", ps, ss)
	}
}

func TestBootstrapErrors(t *testing.T) {
	if _, err := Bootstrap(&geom.Deployment{}, core.Config{}, 1, radio.Config{}); err == nil {
		t.Fatal("empty deployment accepted")
	}
	// A deployment whose second node is out of range must fail.
	d := &geom.Deployment{
		Region: geom.Region{Width: 1000, Height: 1000},
		Range:  50,
		Pos:    []geom.Point{{X: 0, Y: 0}, {X: 900, Y: 900}},
	}
	if _, err := Bootstrap(d, core.Config{}, 1, radio.Config{}); err == nil {
		t.Fatal("disconnected deployment accepted")
	}
}
