package expt

import (
	"fmt"
	"sort"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/stats"
)

// Fig8 reproduces Figure 8: rounds needed to complete a CFF broadcast
// (our Algorithm 2 implementation) versus the DFO broadcast of [19], as a
// function of network size. The paper shows DFO growing linearly to ~600
// rounds at 500 nodes while CFF stays far below.
func Fig8(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		_, icff, dfo, err := runBoth(p, "8", p.Side, n, seed)
		if err != nil {
			return err
		}
		s.add("cff", float64(icff.CompletionRound))
		s.add("cff_sched", float64(icff.ScheduleLen))
		s.add("dfo", float64(dfo.CompletionRound))
		s.add("dfo_sched", float64(dfo.ScheduleLen))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 8 — broadcast completion rounds (CFF vs DFO)",
		"nodes", "cff_rounds", "dfo_rounds", "cff_sched", "dfo_sched", "speedup")
	for i, n := range p.Sizes {
		d := data[i]
		c, f := mean(d["cff"]), mean(d["dfo"])
		t.AddRow(stats.F(float64(n)), stats.F(c), stats.F(f),
			stats.F(mean(d["cff_sched"])), stats.F(mean(d["dfo_sched"])),
			stats.F(f/c))
	}
	return t, nil
}

// Fig9 reproduces Figure 9: the number of rounds a node must stay awake
// during a broadcast. For DFO every node is awake for the whole tour; for
// CFF the maximum over nodes is bounded by 2*delta + Delta.
func Fig9(p Params) (*stats.Table, error) {
	data, err := sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		_, icff, dfo, err := runBoth(p, "9", p.Side, n, seed)
		if err != nil {
			return err
		}
		var cffAwake []int
		for _, v := range icff.Awake {
			cffAwake = append(cffAwake, v)
		}
		sort.Ints(cffAwake) // map order must not leak into the percentile input
		s.add("cff_max", float64(icff.MaxAwake))
		s.add("cff_mean", icff.MeanAwake)
		s.add("cff_p95", stats.PercentileInts(cffAwake, 95))
		s.add("dfo_max", float64(dfo.MaxAwake))
		s.add("dfo_mean", dfo.MeanAwake)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 9 — rounds a node must be awake (CFF vs DFO)",
		"nodes", "cff_max", "cff_p95", "cff_mean", "dfo_max", "dfo_mean", "saving")
	for i, n := range p.Sizes {
		d := data[i]
		cm, fm := mean(d["cff_max"]), mean(d["dfo_max"])
		t.AddRow(stats.F(float64(n)), stats.F(cm), stats.F(mean(d["cff_p95"])),
			stats.F(mean(d["cff_mean"])),
			stats.F(fm), stats.F(mean(d["dfo_mean"])), stats.F(fm/cm))
	}
	return t, nil
}

// structure sweeps the network sizes and records each deployment's
// structural statistics (no protocol runs): the data behind Fig. 10,
// Fig. 11 and the Lemma 3 bound check.
func structure(p Params) ([]samples, error) {
	return sweep(p, p.Sizes, func(n int, seed int64, s samples) error {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return err
		}
		st := net.Stats()
		s.add("size", float64(st.BackboneSize))
		s.add("height", float64(st.BackboneHeight))
		s.add("heads", float64(st.Clusters))
		s.add("D", float64(st.DegreeG))
		s.add("d", float64(st.DegreeBT))
		s.add("Delta", float64(st.Delta))
		s.add("delta", float64(st.SmallDelta))
		s.add("boundL", float64(st.BoundL))
		s.add("boundB", float64(st.BoundB))
		return nil
	})
}

// Fig10 reproduces Figure 10: average size and height of the backbone
// BT(G). The paper shows size growing to ~140 at 500 nodes with height far
// below it.
func Fig10(p Params) (*stats.Table, error) {
	data, err := structure(p)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 10 — backbone size and height",
		"nodes", "bt_size", "bt_height", "clusters")
	for i, n := range p.Sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["size"])),
			stats.F(mean(d["height"])), stats.F(mean(d["heads"])))
	}
	return t, nil
}

// Fig11 reproduces Figure 11: D (max degree of G), d (max degree of
// G(V_BT)), Delta (largest l-time-slot) and delta (largest b-time-slot).
// Section 6 observes Delta < D and delta < d in simulation, far below the
// Lemma 3 worst cases.
func Fig11(p Params) (*stats.Table, error) {
	data, err := structure(p)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 11 — degrees and largest time-slots",
		"nodes", "D", "d", "Delta", "delta")
	for i, n := range p.Sizes {
		d := data[i]
		t.AddRow(stats.F(float64(n)), stats.F(mean(d["D"])), stats.F(mean(d["d"])),
			stats.F(mean(d["Delta"])), stats.F(mean(d["delta"])))
	}
	return t, nil
}

// BoundsCheck validates Lemma 3 numerically: the measured delta and Delta
// against their proven bounds d(d+1)/2+1 and D(D+1)/2+1, reporting the
// measured/bound ratio (Section 4 predicts roughly one quarter; Section 6
// observes even less).
func BoundsCheck(p Params) (*stats.Table, error) {
	data, err := structure(p)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Lemma 3 — measured slots vs proven bounds",
		"nodes", "Delta", "bound_L", "ratio_L", "delta", "bound_B", "ratio_B")
	for i, n := range p.Sizes {
		d := data[i]
		dl, bl := mean(d["Delta"]), mean(d["boundL"])
		db, bb := mean(d["delta"]), mean(d["boundB"])
		t.AddRow(stats.F(float64(n)), stats.F(dl), stats.F(bl), ratio(dl, bl),
			stats.F(db), stats.F(bb), ratio(db, bb))
	}
	return t, nil
}

func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return stats.F(a / b)
}

func errIncomplete(where string, n int, seed int64, a, b broadcast.Metrics) error {
	return fmt.Errorf("expt: %s: incomplete broadcast (n=%d, seed=%d): %s / %s", where, n, seed, a, b)
}
