package flight_test

import (
	"bytes"
	"strings"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/flight"
	"dynsens/internal/netio"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

// buildNet deploys a paper-style network for recording tests.
func buildNet(t testing.TB, n, side int, seed int64) *core.Network {
	t.Helper()
	d, err := workload.IncrementalConnected(workload.PaperConfig(seed, side, n))
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.Build(d.Graph(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// record runs one ICFF broadcast on net with a flight writer attached and
// returns the encoded recording plus the run's metrics.
func record(t testing.TB, net *core.Network, seed int64, n, side int, opts broadcast.Options, ring int) ([]byte, broadcast.Metrics) {
	t.Helper()
	var buf bytes.Buffer
	fw := flight.NewWriter(&buf)
	if ring > 0 {
		fw = flight.NewRingWriter(&buf, ring)
	}
	fw.WriteHeader(flight.Header{
		Seed: seed, N: n, Side: side, Channels: opts.Channels,
		Source: net.Root(), Protocol: "ICFF",
		LossRate: opts.LossRate, LossSeed: opts.LossSeed,
	})
	netio.RecordTopology(fw, net)
	opts.Flight = fw
	m, err := net.Broadcast(net.Root(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), m
}

// recordRun is record over a fresh deployment.
func recordRun(t testing.TB, n, side int, seed int64, opts broadcast.Options, ring int) ([]byte, broadcast.Metrics) {
	t.Helper()
	return record(t, buildNet(t, n, side, seed), seed, n, side, opts, ring)
}

// TestWriterEncodeFixpoint: the incremental Writer and Recording.Encode
// agree byte for byte, and Encode∘Decode is the identity on its own output.
func TestWriterEncodeFixpoint(t *testing.T) {
	raw, _ := recordRun(t, 30, 8, 4, broadcast.Options{Channels: 1}, 0)
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rec.Encode(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatalf("re-encode differs from Writer output (%d vs %d bytes)", out.Len(), len(raw))
	}
	rec2, err := flight.DecodeBytes(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	if err := rec2.Encode(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Fatal("Encode∘Decode is not a byte fixpoint")
	}
}

// TestHeaderRNGSchemeDefaults: a Writer header with nothing set comes out
// as the current format version carrying the counter-stream scheme, and
// the scheme survives a decode round trip.
func TestHeaderRNGSchemeDefaults(t *testing.T) {
	raw, _ := recordRun(t, 30, 8, 4, broadcast.Options{Channels: 1}, 0)
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.Version != flight.Version {
		t.Fatalf("header version %d, want %d", rec.Header.Version, flight.Version)
	}
	if rec.Header.RNGScheme != flight.RNGSchemeCounter {
		t.Fatalf("header scheme %q, want %q", rec.Header.RNGScheme, flight.RNGSchemeCounter)
	}
}

// TestHeaderV1BackwardCompatible: a version-1 recording (no RNGScheme on
// the wire) still decodes — the scheme defaults to the serial engine RNG
// every v1 run drew from — and re-encodes to its original bytes, so old
// recordings stay verifiable and bit-stable.
func TestHeaderV1BackwardCompatible(t *testing.T) {
	v1 := flight.Recording{
		Header: flight.Header{Version: 1, Seed: 9, N: 4, Side: 2, Channels: 1,
			Source: 0, Protocol: "ICFF", LossRate: 0.15, LossSeed: 3},
		Events: []radio.Event{
			{Seq: 1, Round: 1, Kind: radio.EvTransmit, Node: 0, Peer: flight.NoParent, Channel: 0},
		},
	}
	var raw bytes.Buffer
	if err := v1.Encode(&raw); err != nil {
		t.Fatal(err)
	}
	dec, err := flight.DecodeBytes(raw.Bytes())
	if err != nil {
		t.Fatalf("v1 recording failed to decode: %v", err)
	}
	if dec.Header.Version != 1 {
		t.Fatalf("decoded version %d, want 1", dec.Header.Version)
	}
	if dec.Header.RNGScheme != flight.RNGSchemeEngineRand {
		t.Fatalf("v1 scheme defaulted to %q, want %q", dec.Header.RNGScheme, flight.RNGSchemeEngineRand)
	}
	var again bytes.Buffer
	if err := dec.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw.Bytes()) {
		t.Fatalf("v1 re-encode drifted (%d vs %d bytes): the scheme field must stay version-gated",
			again.Len(), raw.Len())
	}
}

// TestVerifierPassesCleanRun: a clean recorded run decodes with the full
// topology and passes every offline check.
func TestVerifierPassesCleanRun(t *testing.T) {
	raw, m := recordRun(t, 30, 8, 4, broadcast.Options{Channels: 1}, 0)
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Nodes) != 30 {
		t.Fatalf("recorded %d nodes, want 30", len(rec.Nodes))
	}
	if rec.Footer == nil {
		t.Fatal("no footer")
	}
	if rec.Footer.Transmissions != m.Transmissions || rec.Footer.Received != m.Received {
		t.Fatalf("footer %+v does not match metrics %+v", *rec.Footer, m)
	}
	if len(rec.Events) < m.Transmissions {
		t.Fatalf("%d events recorded, want >= %d transmissions", len(rec.Events), m.Transmissions)
	}
	rep := flight.Verify(rec)
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("verifier failed on a clean run:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "PASS") {
		t.Fatalf("report does not announce PASS:\n%s", buf.String())
	}
}

// TestVerifierPassesLossyRun: injected failures and frame losses must not
// trip the verifier (collision-freedom is skipped, the rest still holds).
func TestVerifierPassesLossyRun(t *testing.T) {
	net := buildNet(t, 40, 8, 2)
	nodes := net.CNet().Tree().Nodes()
	victim := nodes[len(nodes)-1]
	raw, m := record(t, net, 2, 40, 8, broadcast.Options{
		Config: radio.Config{
			Failures: []broadcast.NodeFailure{{Node: victim, Round: 2}},
			LossRate: 0.2,
			LossSeed: 11,
		},
		Channels: 1,
	}, 0)
	if m.Received == m.Audience {
		t.Log("lossy run still delivered everywhere; verifier checks remain meaningful")
	}
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep := flight.Verify(rec)
	if !rep.Passed() {
		var buf bytes.Buffer
		_ = rep.Write(&buf)
		t.Fatalf("verifier failed on a lossy run:\n%s", buf.String())
	}
}

// TestRingKeepsTail: the bounded ring retains exactly the newest events
// with contiguous sequence numbers, reports the eviction count, and the
// verifier still passes (with the affected checks skipped).
func TestRingKeepsTail(t *testing.T) {
	const cap = 15
	raw, _ := recordRun(t, 30, 8, 4, broadcast.Options{Channels: 1}, cap)
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() == 0 {
		t.Fatal("ring evicted nothing on a 30-node run")
	}
	if len(rec.Events) != cap {
		t.Fatalf("ring kept %d events, want %d", len(rec.Events), cap)
	}
	if rec.Header.RingLimit != cap {
		t.Fatalf("header ring limit %d, want %d", rec.Header.RingLimit, cap)
	}
	want := uint64(rec.Dropped() + 1)
	for i, ev := range rec.Events {
		if ev.Seq != want+uint64(i) {
			t.Fatalf("event %d has seq %d, want %d (tail must stay contiguous)", i, ev.Seq, want+uint64(i))
		}
	}
	rep := flight.Verify(rec)
	if !rep.Passed() {
		var buf bytes.Buffer
		_ = rep.Write(&buf)
		t.Fatalf("verifier failed on a ring recording:\n%s", buf.String())
	}
}

// TestTraceCausality: on a clean full-coverage run, the main payload's span
// DAG reaches every node, every causal path starts at the source, and
// rounds never decrease along a path.
func TestTraceCausality(t *testing.T) {
	raw, m := recordRun(t, 30, 8, 4, broadcast.Options{Channels: 1}, 0)
	if m.Received != m.Audience {
		t.Fatalf("clean run did not deliver everywhere (%d/%d)", m.Received, m.Audience)
	}
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) == 0 {
		t.Fatal("no payload traces")
	}
	main := traces[0]
	for _, tr := range traces {
		if len(tr.Spans) > len(main.Spans) {
			main = tr
		}
	}
	holders := main.Holders()
	for _, n := range rec.Nodes {
		if !holders[n.ID] {
			t.Fatalf("node %d missing from the span DAG of a full-coverage run", n.ID)
		}
		if n.ID == main.Src {
			continue
		}
		path := main.PathTo(n.ID)
		if len(path) == 0 {
			t.Fatalf("no causal path to node %d", n.ID)
		}
		if path[0].Node != main.Src {
			t.Fatalf("path to %d starts at node %d, not the source %d", n.ID, path[0].Node, main.Src)
		}
		for i := 1; i < len(path); i++ {
			if path[i].Round < path[i-1].Round {
				t.Fatalf("path to %d goes back in time at hop %d", n.ID, i)
			}
		}
		if _, ok := main.DeliveredRound(n.ID); !ok {
			t.Fatalf("holder %d has no delivery round", n.ID)
		}
	}
	var buf bytes.Buffer
	if err := main.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "trace seq=") || !strings.Contains(out, "tx node") {
		t.Fatalf("span tree rendering malformed:\n%s", out)
	}
}

// craft builds a 3-node chain recording (0 -> 1 -> 2) by hand: the payload
// reaches node 1 and stops there. extra events are appended after the two
// delivery hops.
func craft(t *testing.T, extra ...radio.Event) *flight.Recording {
	t.Helper()
	var buf bytes.Buffer
	fw := flight.NewWriter(&buf)
	fw.WriteHeader(flight.Header{Seed: 1, N: 3, Side: 1, Channels: 1, Source: 0, Protocol: "ICFF"})
	fw.WriteNode(flight.NodeInfo{ID: 0, Role: flight.RoleHead, Parent: flight.NoParent, Depth: 0})
	fw.WriteNode(flight.NodeInfo{ID: 1, Role: flight.RoleMember, Parent: 0, Depth: 1})
	fw.WriteNode(flight.NodeInfo{ID: 2, Role: flight.RoleMember, Parent: 1, Depth: 2})
	fw.WriteEdge(0, 1)
	fw.WriteEdge(1, 2)
	msg := radio.Message{Seq: 7, Src: 0}
	fw.WriteEvent(radio.Event{Seq: 1, Round: 1, Kind: radio.EvTransmit, Node: 0, Peer: flight.NoParent, Msg: msg})
	fw.WriteEvent(radio.Event{Seq: 2, Round: 1, Kind: radio.EvDeliver, Node: 1, Peer: 0, Msg: msg})
	for _, ev := range extra {
		fw.WriteEvent(ev)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := flight.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestWhyMissedLocalizesFirstBrokenHop(t *testing.T) {
	rec := craft(t)
	m, err := rec.WhyMissed(2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Received {
		t.Fatal("node 2 reported as received")
	}
	if m.From != 1 || m.To != 2 {
		t.Fatalf("broken hop %d -> %d, want 1 -> 2", m.From, m.To)
	}
	if !strings.Contains(m.Reason, "never transmitted") {
		t.Fatalf("reason %q does not explain the silent holder", m.Reason)
	}
	if !strings.Contains(m.String(), "first broken hop 1 -> 2") {
		t.Fatalf("report line malformed: %s", m)
	}
}

func TestWhyMissedBlamesDeadTransmitter(t *testing.T) {
	rec := craft(t, radio.Event{Seq: 3, Round: 2, Kind: radio.EvNodeFail, Node: 1, Peer: flight.NoParent})
	m, err := rec.WhyMissed(2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Reason, "died in round 2") {
		t.Fatalf("reason %q does not blame the dead transmitter", m.Reason)
	}
}

func TestWhyMissedReportsDelivery(t *testing.T) {
	rec := craft(t)
	m, err := rec.WhyMissed(1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Received || m.Round != 1 {
		t.Fatalf("node 1 received in round 1, got %+v", m)
	}
	if _, err := rec.WhyMissed(99); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestTraceLookup(t *testing.T) {
	rec := craft(t)
	if tr := rec.Trace(7); tr == nil || tr.Src != 0 {
		t.Fatalf("Trace(7) = %+v", tr)
	}
	if tr := rec.Trace(99); tr != nil {
		t.Fatal("Trace(99) found a phantom payload")
	}
}

// TestDecodeRejectsMalformed: the strict decoder must turn every framing
// violation into an error (the fuzz target guards the panic-free half).
func TestDecodeRejectsMalformed(t *testing.T) {
	raw, _ := recordRun(t, 20, 8, 3, broadcast.Options{Channels: 1}, 0)

	headerOnly := func() []byte {
		var buf bytes.Buffer
		fw := flight.NewWriter(&buf)
		fw.WriteHeader(flight.Header{Seed: 1, N: 1, Side: 1, Channels: 1})
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	flip := append([]byte(nil), raw...)
	flip[0] ^= 0xff

	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"bad magic", flip, "bad magic"},
		{"magic only", raw[:4], "no header"},
		{"truncated", raw[:len(raw)-3], ""},
		{"record after footer", append(append([]byte(nil), raw...), 6, 0), "after footer"},
		{"unknown type", append(append([]byte(nil), headerOnly...), 99, 0), "unknown record type"},
		{"trailing bytes in record", append(append([]byte(nil), headerOnly...), 3, 3, 0, 0, 0), "trailing"},
		{"header not first", append(append([]byte(nil), raw[:4]...), 3, 2, 0, 0), "not a header"},
	}
	for _, tc := range cases {
		rec, err := flight.DecodeBytes(tc.in)
		if err == nil {
			t.Errorf("%s: decoded successfully (%d events)", tc.name, len(rec.Events))
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestRecordingAccessors(t *testing.T) {
	rec := craft(t)
	if rec.Role(0) != flight.RoleHead || rec.Role(99) != 0 {
		t.Fatal("Role lookup broken")
	}
	for role, want := range map[byte]string{
		flight.RoleHead: "head", flight.RoleGateway: "gateway",
		flight.RoleMember: "member", 'x': "unknown",
	} {
		if got := flight.RoleName(role); got != want {
			t.Errorf("RoleName(%q) = %q, want %q", role, got, want)
		}
	}
	g, err := rec.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("rebuilt graph has %d nodes / %d edges", g.NumNodes(), g.NumEdges())
	}
	if rec.Dropped() != 0 {
		t.Fatal("unbounded recording reports drops")
	}
}
