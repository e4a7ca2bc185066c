// Robustness: sensors die mid-broadcast. The depth-first-order baseline
// carries a single token, so one death on the Eulerian tour stalls the
// whole broadcast; collision-free flooding keeps every surviving branch
// relaying. This example injects the same failure trace into both
// protocols and compares who still gets the message.
package main

import (
	"fmt"
	"log"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

func main() {
	deployment, err := workload.IncrementalConnected(workload.PaperConfig(5, 10, 300))
	if err != nil {
		log.Fatal(err)
	}
	net, err := core.Build(deployment.Graph(), core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	st := net.Stats()
	dfoHorizon := 2 * (st.BackboneSize - 1)

	fmt.Println("fail%   CFF delivery   DFO delivery")
	for _, frac := range []float64{0, 0.02, 0.05, 0.10, 0.20} {
		trace := workload.FailureTrace(net.Graph(), net.Root(), frac, dfoHorizon, 1234)
		var fails []broadcast.NodeFailure
		for _, f := range trace {
			fails = append(fails, broadcast.NodeFailure{Node: f.Node, Round: f.Round})
		}

		cff, err := net.Broadcast(net.Root(), broadcast.Options{Config: radio.Config{Failures: fails}})
		if err != nil {
			log.Fatal(err)
		}
		dfo, err := net.BroadcastDFO(net.Root(), broadcast.Options{Config: radio.Config{Failures: fails}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4.0f%%   %5.1f%% (%3d)   %5.1f%% (%3d)\n",
			frac*100,
			cff.DeliveryRatio()*100, cff.Received,
			dfo.DeliveryRatio()*100, dfo.Received)
	}
	fmt.Println("\n(the same nodes die at the same rounds in both runs;")
	fmt.Println(" flooding routes around them, the token does not)")
}
