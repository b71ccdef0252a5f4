// Fairness: a bandwidth bully (TRD, a streaming kernel) co-scheduled with
// an L2-sensitive victim (CFD). The example shows the slowdown imbalance
// under ++bestTLP and how PBS-FI rebalances effective bandwidth, then
// inspects the manager's sampling table (the Fig. 8 hardware structure).
package main

import (
	"fmt"
	"log"

	"ebm"
)

func main() {
	cfg := ebm.DefaultConfig()
	wl, ok := ebm.WorkloadByName("CFD_TRD")
	if !ok {
		log.Fatal("workload CFD_TRD unavailable")
	}

	suite, err := ebm.Profile(wl.Apps, ebm.ProfileOptions{Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	aloneIPC, err := suite.AloneIPC(wl.Names())
	if err != nil {
		log.Fatal(err)
	}
	best, err := suite.BestTLPs(wl.Names())
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, mgr ebm.Manager) ebm.Result {
		res, err := ebm.Run(ebm.RunOptions{
			Config:             cfg,
			Apps:               wl.Apps,
			Manager:            mgr,
			TotalCycles:        800_000,
			WarmupCycles:       10_000,
			DesignatedSampling: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		sd, err := ebm.Slowdowns(res.IPCs(), aloneIPC)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", label)
		for i, a := range res.Apps {
			fmt.Printf("  %-4s SD=%.3f  EB=%.3f  TLP(avg %.1f, final %d)\n",
				a.Name, sd[i], a.EB, a.AvgTLP, a.FinalTLP)
		}
		fmt.Printf("  WS=%.3f FI=%.3f (FI of 1.0 = perfectly fair)\n", ebm.WS(sd), ebm.FI(sd))
		return res
	}

	run("++bestTLP (each app tuned as if alone)", ebm.NewStaticManager("++bestTLP", best))

	pbs := ebm.NewPBSFI()
	res := run("PBS-FI (balance effective bandwidth online)", pbs)

	fmt.Println("\nPBS sampling table (TLP combination -> per-app EB):")
	for _, e := range pbs.Table() {
		fmt.Printf("  TLP%v  EB=%.3f / %.3f\n", e.TLP, e.EB[0], e.EB[1])
	}
	// The run's decision record carries the search counts.
	fmt.Printf("searches completed: %d, kernel restarts: %d\n", res.Decisions.Searches, res.Decisions.Restarts)
}
