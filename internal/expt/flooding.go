package expt

import (
	"fmt"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/stats"
)

// Flooding compares the paper's structured CFF broadcast against the
// unstructured probabilistic-flooding family the introduction cites
// (blind flooding suffers the broadcast-storm problem [16]; probabilistic
// variants trade delivery for fewer collisions). Rows sweep the forward
// probability at the largest configured size.
func Flooding(p Params, forwards []float64) (*stats.Table, error) {
	if len(forwards) == 0 {
		forwards = []float64{0.3, 0.5, 0.7, 1.0}
	}
	n := p.Sizes[len(p.Sizes)-1]
	t := stats.NewTable(fmt.Sprintf("Unstructured flooding baseline vs CFF (n=%d)",
		n), "protocol", "delivery", "last_rx", "collisions", "tx", "max_awake")

	var cffDel, cffDone, cffColl, cffTx, cffAwake []float64
	var rrDel, rrDone, rrColl, rrTx, rrAwake []float64
	type floodRow struct{ del, done, coll, tx, awake []float64 }
	rows := make(map[float64]*floodRow, len(forwards))
	for _, f := range forwards {
		rows[f] = &floodRow{}
	}
	for _, seed := range p.seeds() {
		net, _, err := core.Deploy(p.Side, n, seed, core.Config{})
		if err != nil {
			return nil, err
		}
		cff, err := net.Broadcast(net.Root(), broadcast.Options{})
		if err != nil {
			return nil, err
		}
		cffDel = append(cffDel, cff.DeliveryRatio())
		cffDone = append(cffDone, float64(cff.CompletionRound))
		cffColl = append(cffColl, float64(cff.Collisions))
		cffTx = append(cffTx, float64(cff.Transmissions))
		cffAwake = append(cffAwake, float64(cff.MaxAwake))
		rr, err := broadcast.RunRoundRobin(net.Graph(), net.Root(), 0, broadcast.Options{})
		if err != nil {
			return nil, err
		}
		rrDel = append(rrDel, rr.DeliveryRatio())
		rrDone = append(rrDone, float64(rr.CompletionRound))
		rrColl = append(rrColl, float64(rr.Collisions))
		rrTx = append(rrTx, float64(rr.Transmissions))
		rrAwake = append(rrAwake, float64(rr.MaxAwake))
		for _, f := range forwards {
			m, err := broadcast.RunPFlood(net.Graph(), net.Root(), broadcast.PFloodOptions{
				Seed: seed * 7, Forward: f,
			})
			if err != nil {
				return nil, err
			}
			r := rows[f]
			r.del = append(r.del, m.DeliveryRatio())
			r.done = append(r.done, float64(m.CompletionRound))
			r.coll = append(r.coll, float64(m.Collisions))
			r.tx = append(r.tx, float64(m.Transmissions))
			r.awake = append(r.awake, float64(m.MaxAwake))
		}
	}
	t.AddRow("cff", fmt.Sprintf("%.3f", mean(cffDel)), stats.F(mean(cffDone)),
		stats.F(mean(cffColl)), stats.F(mean(cffTx)), stats.F(mean(cffAwake)))
	t.AddRow("round-robin", fmt.Sprintf("%.3f", mean(rrDel)), stats.F(mean(rrDone)),
		stats.F(mean(rrColl)), stats.F(mean(rrTx)), stats.F(mean(rrAwake)))
	for _, f := range forwards {
		r := rows[f]
		t.AddRow(fmt.Sprintf("flood_p=%.1f", f), fmt.Sprintf("%.3f", mean(r.del)),
			stats.F(mean(r.done)), stats.F(mean(r.coll)), stats.F(mean(r.tx)),
			stats.F(mean(r.awake)))
	}
	return t, nil
}
