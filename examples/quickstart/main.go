// Quickstart: the smallest complete AdaptiveFL run, assembled from the
// core packages directly — synthetic CIFAR-10-like data, a reduced-width
// VGG16, a 4:3:3 weak/medium/strong device population, and a few federated
// rounds with per-level submodel evaluation.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/models"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
)

func main() {
	const (
		numClients = 20
		perRound   = 5
		rounds     = 12
	)

	// 1. The global model: VGG16 at 1/8 width so a laptop CPU can train it.
	mcfg := models.Config{Arch: models.VGG16, NumClasses: 10, WidthScale: 0.125, Seed: 1}

	// 2. The model pool R = {S3..S1, M3..M1, L1} (paper Table 1, p=3).
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model pool:")
	for _, m := range pool.Members {
		fmt.Printf("  %-3s r_w=%.2f I=%-2d %8d params\n", m.Name(), m.Rw, m.I, m.Size)
	}

	// 3. Synthetic CIFAR-10-like data, IID across 20 clients.
	dcfg := data.CIFAR10Like(numClients*30, 300, 7)
	train, test := data.Generate(dcfg)
	rng := rand.New(rand.NewSource(7))
	parts := data.PartitionIID(rng, train.Len(), numClients)

	// 4. Devices: 4:3:3 weak/medium/strong with 10% capacity jitter.
	devices := core.NewPopulation(rng, numClients, [3]float64{4, 3, 3}, pool, core.DefaultDeviceModel())
	clients := make([]*core.Client, numClients)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}

	// 5. The AdaptiveFL server (Algorithm 1).
	srv, err := core.NewServer(core.Config{
		Model:           mcfg,
		Pool:            prune.Config{P: 3},
		ClientsPerRound: perRound,
		Train:           core.TrainConfig{LocalEpochs: 1, BatchSize: 10, LR: 0.1, Momentum: 0.5},
		Seed:            7,
	}, clients)
	if err != nil {
		log.Fatal(err)
	}

	// 6. The round loop: the scheduler engine's sync policy, one barrier
	// round per Step, priced on the simulated Table 5 devices (a nil trace
	// keeps every client online).
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.Sync, K: perRound, Epochs: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nround  full%   S1%    M1%    L1%")
	for r := 1; r <= rounds; r++ {
		if _, err := eng.Step(); err != nil {
			log.Fatal(err)
		}
		if r%3 != 0 {
			continue
		}
		full, err := srv.GlobalModel()
		if err != nil {
			log.Fatal(err)
		}
		accs := map[string]float64{"full": eval.Accuracy(full, test, 50)}
		for _, name := range []string{"S1", "M1", "L1"} {
			m, err := srv.SubmodelByName(name)
			if err != nil {
				log.Fatal(err)
			}
			accs[name] = eval.Accuracy(m, test, 50)
		}
		fmt.Printf("%5d  %5.1f  %5.1f  %5.1f  %5.1f\n",
			r, accs["full"]*100, accs["S1"]*100, accs["M1"]*100, accs["L1"]*100)
	}
	fmt.Printf("\ncommunication waste: %.1f%%\n", core.CommWasteRate(srv.Stats())*100)
}
