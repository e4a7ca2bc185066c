package netio

import (
	"strings"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/geom"
	"dynsens/internal/trace"
	"dynsens/internal/workload"
)

func setup(t *testing.T) (*core.Network, *geom.Deployment) {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(4, 8, 60))
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.Build(d.Graph(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net, d
}

func TestExportRoundTrip(t *testing.T) {
	net, d := setup(t)
	_ = net.JoinGroup(5, 2)
	nw, err := Export(net, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Nodes) != 60 {
		t.Fatalf("nodes = %d", len(nw.Nodes))
	}
	if nw.Root != int(net.Root()) || nw.Range != 50 {
		t.Fatalf("header = %+v", nw)
	}
	if len(nw.Edges) != net.Graph().NumEdges() {
		t.Fatalf("edges = %d, want %d", len(nw.Edges), net.Graph().NumEdges())
	}

	var b strings.Builder
	if err := nw.Write(&b); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != 60 || back.Delta != nw.Delta {
		t.Fatalf("round trip lost data: %+v", back)
	}
	g, err := back.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(net.Graph()) {
		t.Fatal("reconstructed graph differs")
	}
	// Group membership survived.
	found := false
	for _, n := range back.Nodes {
		if n.ID == 5 {
			for _, grp := range n.Groups {
				if grp == 2 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("group membership missing from export")
	}
}

func TestExportStatusAndSlots(t *testing.T) {
	net, d := setup(t)
	nw, err := Export(net, d)
	if err != nil {
		t.Fatal(err)
	}
	heads, gateways, members := 0, 0, 0
	for _, n := range nw.Nodes {
		switch n.Status {
		case "head":
			heads++
		case "gateway":
			gateways++
		case "member":
			members++
			if n.BSlot != nil || n.LSlot != nil || n.USlot != nil {
				t.Fatalf("member %d carries slots", n.ID)
			}
		default:
			t.Fatalf("node %d has status %q", n.ID, n.Status)
		}
		if n.ID == nw.Root {
			if n.Parent != nil || n.Depth != 0 {
				t.Fatal("root metadata wrong")
			}
		} else if n.Parent == nil {
			t.Fatalf("non-root %d has no parent", n.ID)
		}
	}
	st := net.Stats()
	if heads != st.Clusters || gateways != st.Gateways || members != st.Members {
		t.Fatalf("status counts %d/%d/%d vs %+v", heads, gateways, members, st)
	}
}

func TestExportMismatchedDeployment(t *testing.T) {
	net, _ := setup(t)
	short := &geom.Deployment{Region: geom.Region{Width: 10, Height: 10}, Range: 1}
	if _, err := Export(net, short); err == nil {
		t.Fatal("short deployment accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestHeatSVGFromBroadcast(t *testing.T) {
	net, d := setup(t)
	rec := trace.NewRecorder(0)
	m, err := net.Broadcast(net.Root(), broadcast.Options{TraceBatch: rec.BatchHook()})
	if err != nil || !m.Completed {
		t.Fatalf("broadcast: %v %s", err, m)
	}
	rounds := ReceptionRounds(rec.Events())
	// Every node except the source received at some round.
	if len(rounds) != net.Size()-1 {
		t.Fatalf("reception rounds for %d nodes, want %d", len(rounds), net.Size()-1)
	}
	svg := HeatSVG(net, d, rounds, 400)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "rgb(") {
		t.Fatalf("malformed heat SVG: %.100s", svg)
	}
	// Gray fallback for the uncolored source.
	if !strings.Contains(svg, "#bbbbbb") {
		t.Fatal("source not gray")
	}
	// Empty value map still renders.
	if !strings.HasPrefix(HeatSVG(net, d, nil, 0), "<svg") {
		t.Fatal("empty heat map failed")
	}
}

func TestSVG(t *testing.T) {
	net, d := setup(t)
	svg := SVG(net, d, 400)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatalf("malformed SVG: %.80s", svg)
	}
	st := net.Stats()
	// One ring per non-root head, one square per gateway, one filled sink.
	if got := strings.Count(svg, `stroke="#1f77b4"`); got != st.Clusters-1 {
		t.Fatalf("head rings = %d, want %d", got, st.Clusters-1)
	}
	if got := strings.Count(svg, `fill="#2ca02c"`); got != st.Gateways {
		t.Fatalf("gateway squares = %d, want %d", got, st.Gateways)
	}
	if got := strings.Count(svg, `fill="#d62728"`); got != 1 {
		t.Fatalf("sinks = %d", got)
	}
	// Tree edges: n-1 dark lines.
	if got := strings.Count(svg, `stroke="#333333"`); got != net.Size()-1 {
		t.Fatalf("tree edges = %d, want %d", got, net.Size()-1)
	}
	// Tiny width falls back to the default.
	if !strings.Contains(SVG(net, d, 10), `width="600"`) {
		t.Fatal("width fallback missing")
	}
}

func TestDOT(t *testing.T) {
	net, d := setup(t)
	dot := DOT(net, d)
	if !strings.HasPrefix(dot, "graph cnet {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("malformed DOT:\n%.120s", dot)
	}
	for _, want := range []string{"doublecircle", "style=solid", "style=dotted", "fillcolor=gray", "pos="} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q", want)
		}
	}
	// Tree edges: exactly n-1 solid edges.
	solid := strings.Count(dot, "style=solid")
	if solid != net.Size()-1 {
		t.Fatalf("solid edges = %d, want %d", solid, net.Size()-1)
	}
	// Without a deployment, no pos attributes.
	if strings.Contains(DOT(net, nil), "pos=") {
		t.Fatal("pos emitted without deployment")
	}
}

func TestAsciiMap(t *testing.T) {
	net, d := setup(t)
	m := AsciiMap(net, d, 40, 16)
	if !strings.Contains(m, "R") {
		t.Fatal("root missing from map")
	}
	lines := strings.Split(strings.TrimSpace(m), "\n")
	// 16 rows + 2 borders + legend.
	if len(lines) != 19 {
		t.Fatalf("map has %d lines", len(lines))
	}
	if len(lines[1]) != 42 {
		t.Fatalf("row width = %d", len(lines[1]))
	}
	// Default dimensions kick in for nonsense sizes.
	m2 := AsciiMap(net, d, 0, 0)
	if !strings.Contains(m2, "R") {
		t.Fatal("default-size map missing root")
	}
}
