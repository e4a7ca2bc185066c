package expt

import (
	"strconv"
	"strings"
	"testing"
)

func quick() Params { return Quick() }

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig8ShapeCFFFaster(t *testing.T) {
	tb, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		cff := parseF(t, row[1])
		dfo := parseF(t, row[2])
		if cff >= dfo {
			t.Fatalf("CFF %v not faster than DFO %v (row %v)", cff, dfo, row)
		}
	}
}

func TestFig9ShapeCFFLighter(t *testing.T) {
	tb, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		cffMax := parseF(t, row[1])
		cffP95 := parseF(t, row[2])
		dfoMax := parseF(t, row[4])
		if cffMax >= dfoMax {
			t.Fatalf("CFF awake %v not below DFO %v", cffMax, dfoMax)
		}
		if cffP95 > cffMax {
			t.Fatalf("p95 %v above max %v", cffP95, cffMax)
		}
	}
}

func TestFig10HeightBelowSize(t *testing.T) {
	tb, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		size := parseF(t, row[1])
		height := parseF(t, row[2])
		if height >= size {
			t.Fatalf("backbone height %v not below size %v", height, size)
		}
	}
}

func TestFig11SlotsBelowDegrees(t *testing.T) {
	tb, err := Fig11(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		D := parseF(t, row[1])
		Delta := parseF(t, row[3])
		if Delta > D {
			t.Fatalf("Delta %v above D %v — Section 6 observation violated", Delta, D)
		}
	}
}

func TestBoundsCheckRatios(t *testing.T) {
	tb, err := BoundsCheck(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if rl := parseF(t, row[3]); rl > 1 {
			t.Fatalf("Delta/bound ratio %v exceeds 1", rl)
		}
		if rb := parseF(t, row[6]); rb > 1 {
			t.Fatalf("delta/bound ratio %v exceeds 1", rb)
		}
	}
}

func TestMultiChannelMonotone(t *testing.T) {
	tb, err := MultiChannel(quick(), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i, row := range tb.Rows {
		sched := parseF(t, row[2])
		if i > 0 && sched > prev {
			t.Fatalf("schedule grew with more channels: %v after %v", sched, prev)
		}
		prev = sched
	}
}

func TestMulticastPrunes(t *testing.T) {
	tb, err := Multicast(quick(), []float64{0.1, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	small := parseF(t, tb.Rows[0][2])
	full := parseF(t, tb.Rows[1][3])
	if small >= full {
		t.Fatalf("small-group multicast tx %v not below broadcast tx %v", small, full)
	}
}

func TestRobustnessCFFAtLeastDFO(t *testing.T) {
	tb, err := Robustness(quick(), []float64{0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// No failures: both deliver fully.
	if parseF(t, tb.Rows[0][1]) != 1 || parseF(t, tb.Rows[0][2]) != 1 {
		t.Fatalf("lossless run not fully delivered: %v", tb.Rows[0])
	}
	// With failures: CFF at least as good as DFO (averaged).
	if parseF(t, tb.Rows[1][1]) < parseF(t, tb.Rows[1][2]) {
		t.Fatalf("CFF below DFO under failures: %v", tb.Rows[1])
	}
}

func TestReconfigProducesCosts(t *testing.T) {
	tb, err := Reconfig(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if parseF(t, row[1]) <= 0 {
			t.Fatalf("move-in cost missing: %v", row)
		}
	}
}

func TestAreasRuns(t *testing.T) {
	tb, err := Areas(quick(), []int{8, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestAblationAlg1VsAlg2(t *testing.T) {
	tb, err := AblationAlg1VsAlg2(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		a1 := parseF(t, row[1])
		a2 := parseF(t, row[2])
		// At the quick scale the two schedules are close (the backbone is
		// nearly the whole tree); assert Algorithm 2 is not meaningfully
		// worse. The paper-scale benchmark shows the real separation.
		if a2 > a1*1.5+5 {
			t.Fatalf("Algorithm 2 (%v) much slower than Algorithm 1 (%v)", a2, a1)
		}
	}
}

func TestAblationSlotCondition(t *testing.T) {
	tb, err := AblationSlotCondition(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if parseF(t, row[4]) != 1 {
			t.Fatalf("strict condition dropped leaves: %v", row)
		}
		if parseF(t, row[2]) < parseF(t, row[1]) {
			t.Fatalf("strict Delta below paper Delta: %v", row)
		}
	}
}

func TestLifetimeCFFOutlivesDFO(t *testing.T) {
	tb, err := Lifetime(quick(), 1e5)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		cff := parseF(t, row[1])
		dfo := parseF(t, row[2])
		if cff <= dfo {
			t.Fatalf("CFF lifetime %v not above DFO %v", cff, dfo)
		}
	}
}

func TestFailoverRecoversDelivery(t *testing.T) {
	tb, err := Failover(quick())
	if err != nil {
		t.Fatal(err)
	}
	single := parseF(t, tb.Rows[0][1])
	dual := parseF(t, tb.Rows[1][1])
	if dual <= single {
		t.Fatalf("failover delivery %v not above single-sink %v", dual, single)
	}
}

func TestConstructionGossipFlat(t *testing.T) {
	tb, err := Construction(quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tb.Rows {
		n := parseF(t, row[0])
		gossip := parseF(t, row[3])
		if gossip != 2*n {
			t.Fatalf("row %d: gossip cost %v != 2n", i, gossip)
		}
	}
}

func TestSkewGuardTradeoff(t *testing.T) {
	tb, err := Skew(quick(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// sigma=0: all guards deliver fully.
	for col := 1; col <= 3; col++ {
		if parseF(t, tb.Rows[0][col]) != 1 {
			t.Fatalf("sigma=0 delivery not 1: %v", tb.Rows[0])
		}
	}
	// sigma=1: guard 3 and 5 deliver fully; guard 1 degrades.
	if parseF(t, tb.Rows[1][2]) != 1 || parseF(t, tb.Rows[1][3]) != 1 {
		t.Fatalf("guarded schedules failed under skew: %v", tb.Rows[1])
	}
	if parseF(t, tb.Rows[1][1]) >= 1 {
		t.Fatalf("unguarded schedule unaffected by skew: %v", tb.Rows[1])
	}
}

func TestGatheringExact(t *testing.T) {
	tb, err := Gathering(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if parseF(t, row[4]) != 1 {
			t.Fatalf("gathering inexact: %v", row)
		}
	}
}

func TestFloodingStorm(t *testing.T) {
	tb, err := Flooding(quick(), []float64{1.0})
	if err != nil {
		t.Fatal(err)
	}
	cffColl := parseF(t, tb.Rows[0][3])
	floodColl := parseF(t, tb.Rows[2][3])
	if floodColl <= cffColl {
		t.Fatalf("blind flooding collided less than CFF: %v vs %v", floodColl, cffColl)
	}
	cffAwake := parseF(t, tb.Rows[0][5])
	floodAwake := parseF(t, tb.Rows[2][5])
	if floodAwake <= cffAwake {
		t.Fatalf("flooding awake %v not above CFF %v", floodAwake, cffAwake)
	}
	// Round-robin always delivers but is slow.
	if parseF(t, tb.Rows[1][1]) != 1 {
		t.Fatalf("round-robin delivery: %v", tb.Rows[1])
	}
	if parseF(t, tb.Rows[1][2]) <= parseF(t, tb.Rows[0][2]) {
		t.Fatalf("round-robin completion not above CFF: %v vs %v", tb.Rows[1][2], tb.Rows[0][2])
	}
}

func TestRepairExperiment(t *testing.T) {
	tb, err := Repair(quick(), []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	if parseF(t, row[4]) != 1 {
		t.Fatalf("post-repair delivery below 1: %v", row)
	}
	if parseF(t, row[1]) <= 0 {
		t.Fatalf("nothing detected: %v", row)
	}
}

func TestMobilityExperiment(t *testing.T) {
	tb, err := Mobility(quick(), []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	if row[4] != "yes" {
		t.Fatalf("broadcast incomplete under mobility: %v", row)
	}
	if parseF(t, row[1]) <= 0 {
		t.Fatalf("no structural cost measured: %v", row)
	}
}

func TestDiscoveryExperiment(t *testing.T) {
	tb, err := Discovery(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if parseF(t, row[5]) < 0.9 {
			t.Fatalf("discovery completeness too low: %v", row)
		}
		if parseF(t, row[2]) <= 0 {
			t.Fatalf("no rounds measured: %v", row)
		}
	}
}

func TestCatalogAndFind(t *testing.T) {
	cat := Catalog()
	if len(cat) < 10 {
		t.Fatalf("catalog too small: %d", len(cat))
	}
	seen := map[string]bool{}
	for _, e := range cat {
		if e.ID == "" || e.Run == nil || e.Name == "" {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("8"); !ok {
		t.Fatal("Find(8) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find(nope) succeeded")
	}
}

func TestPolicyAblation(t *testing.T) {
	tb, err := PolicyAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if parseF(t, row[1]) <= 0 {
			t.Fatalf("no clusters: %v", row)
		}
	}
}

func TestBootstrapExperiment(t *testing.T) {
	p := Params{Side: 8, Sizes: []int{30}, Seeds: 1, BaseSeed: 2}
	tb, err := BootstrapExp(p)
	if err != nil {
		t.Fatal(err)
	}
	if parseF(t, tb.Rows[0][1]) <= 0 {
		t.Fatalf("no rounds: %v", tb.Rows[0])
	}
}

// TestPaperScaleRange exercises the paper's full stated range, 64 to 720
// nodes on the 8x8 and 12x12 regions.
func TestPaperScaleRange(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	for _, tc := range []struct{ side, n int }{{8, 64}, {12, 720}} {
		p := Params{Side: tc.side, Seeds: 1, BaseSeed: 9}
		_, icff, dfo, err := runBoth(p, "8", p.Side, tc.n, 9)
		if err != nil {
			t.Fatalf("side=%d n=%d: %v", tc.side, tc.n, err)
		}
		if !icff.Completed || !dfo.Completed {
			t.Fatalf("side=%d n=%d incomplete: %s / %s", tc.side, tc.n, icff, dfo)
		}
		if icff.CompletionRound >= dfo.CompletionRound {
			t.Fatalf("side=%d n=%d: CFF not faster (%d vs %d)",
				tc.side, tc.n, icff.CompletionRound, dfo.CompletionRound)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	var b strings.Builder
	if err := RunAll(quick(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11", "Lemma 3", "Multicast", "Robustness"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}
