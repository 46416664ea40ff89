// Test-bed example: the paper's real-hardware experiment (Figure 6 /
// Table 5) on the simulated 17-device AIoT platform — 4 Raspberry Pi 4B,
// 10 Jetson Nano, 3 Jetson Xavier AGX — training MobileNetV2 on
// Widar-like gesture data, with accuracy reported against simulated
// wall-clock time.
package main

import (
	"fmt"
	"log"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/models"
	"adaptivefl/internal/testbed"
)

func main() {
	sc := exp.QuickScale()
	sc.Clients = 17
	sc.K = 10
	sc.Rounds = 12
	sc.EvalEvery = 3
	sc.Parallelism = 10
	// Ship models over the int8-quantized wire codec: the round ledger
	// then carries real encoded byte counts, and the simulated transfer
	// times below reflect them (Pi-class uplinks are the bottleneck).
	sc.Codec = "q8"

	platform := testbed.Table5Platform()
	fmt.Println("simulated platform (paper Table 5):")
	for _, sp := range platform {
		fmt.Printf("  %-18s x%-2d  %v-class\n", sp.Name, sp.Count, sp.Class)
	}

	fed, err := exp.BuildFederation(models.MobileNetV2, "widar", exp.Natural, [3]float64{4, 10, 3}, sc)
	if err != nil {
		log.Fatal(err)
	}
	r, err := exp.NewRunner("AdaptiveFL", fed, sc)
	if err != nil {
		log.Fatal(err)
	}
	// The runner's scheduler engine prices every dispatch on this platform.
	a := r.(*baselines.Adaptive)

	fmt.Println("\nround  sim-time(s)  full-acc(%)")
	for round := 1; round <= sc.Rounds; round++ {
		if err := r.Round(); err != nil {
			log.Fatal(err)
		}
		if round%sc.EvalEvery == 0 {
			acc, err := r.Evaluate(fed.Test, 64)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%5d  %11.1f  %10.2f\n", round, a.SimTime(), acc["full"]*100)
		}
	}
	fmt.Printf("\ncommunication waste on the test bed: %.1f%%\n", a.Waste()*100)
	sent, back := core.TotalWireBytes(a.Srv.Stats())
	fmt.Printf("wire traffic (codec=%s): %.2f MB down, %.2f MB up\n",
		sc.Codec, float64(sent)/1e6, float64(back)/1e6)
}
