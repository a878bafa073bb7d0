// molecular_design: the paper's scientific-computing workload — an
// active-learning campaign steered by a Colmena-style thinker over
// the FaaS platform, with CPU quantum-chemistry simulations and GPU
// emulator training/inference.
//
//	go run ./examples/molecular_design
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/moldesign"
	"repro/internal/report"
)

func main() {
	cfg := moldesign.DefaultConfig()
	cfg.Rounds = 4
	res, err := core.RunMolDesign(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report
	fmt.Printf("molecular-design campaign: %d rounds, %d simulations total, %.0fs of virtual time\n",
		cfg.Rounds, rep.Dataset, res.Makespan.Seconds())
	fmt.Printf("best ionization potential found: %.3f eV (random initial pool best: %.3f, pool mean: %.3f)\n",
		rep.BestIP, rep.InitialBestIP, rep.PoolMeanIP)
	fmt.Println("selected-batch quality per round (the active learner at work):")
	for i, m := range rep.RoundBatchMeanIP {
		fmt.Printf("  round %d: mean IP of selected batch %.3f\n", i+1, m)
	}
	fmt.Printf("emulator RMSE on its training set: %.3f\n\n", rep.FinalRMSE)

	fmt.Printf("the Fig. 3 observation — the GPU is busy only %.0f%% of the campaign (%d idle gaps):\n\n",
		res.GPUBusyFraction*100, res.GPUIdleGaps)
	fmt.Print(report.Fig3Gantt(res, 110))
	fmt.Println("\npipelining another tenant onto the idle GPU is exactly what the paper's partitioning enables.")
}
