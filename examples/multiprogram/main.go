// Multiprogram: run a batch of representative two-application workloads
// under every online TLP management scheme and print a Fig. 9-style
// comparison of weighted speedup and fairness.
package main

import (
	"fmt"
	"log"

	"ebm"
)

func main() {
	cfg := ebm.DefaultConfig()

	workloads := []string{"BLK_TRD", "BFS_FFT", "BLK_BFS", "FFT_TRD", "JPEG_CFD"}
	schemes := []struct {
		name string
		mk   func() ebm.Manager
	}{
		{"++maxTLP", func() ebm.Manager { return ebm.NewMaxTLPManager(2) }},
		{"++DynCTA", func() ebm.Manager { return ebm.NewDynCTA() }},
		{"Mod+Bypass", func() ebm.Manager { return ebm.NewModBypass() }},
		{"PBS-WS", func() ebm.Manager { return ebm.NewPBSWS() }},
	}

	// Profile the whole suite; the result cache replays it on repeat runs.
	cache, err := ebm.OpenSimCache("simcache")
	if err != nil {
		log.Fatal(err)
	}
	suite, err := ebm.Profile(ebm.Applications(), ebm.ProfileOptions{Config: cfg, Cache: cache})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-12s %8s %8s %8s\n", "workload", "scheme", "WS", "FI", "vs best")
	for _, name := range workloads {
		wl, ok := ebm.WorkloadByName(name)
		if !ok {
			log.Fatalf("unknown workload %s", name)
		}
		aloneIPC, err := suite.AloneIPC(wl.Names())
		if err != nil {
			log.Fatal(err)
		}
		best, err := suite.BestTLPs(wl.Names())
		if err != nil {
			log.Fatal(err)
		}

		run := func(mgr ebm.Manager) (ws, fi float64) {
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
			return ebm.WS(sd), ebm.FI(sd)
		}

		baseWS, baseFI := run(ebm.NewStaticManager("++bestTLP", best))
		fmt.Printf("%-10s %-12s %8.3f %8.3f %8s\n", name, "++bestTLP", baseWS, baseFI, "1.000")
		for _, sch := range schemes {
			ws, fi := run(sch.mk())
			fmt.Printf("%-10s %-12s %8.3f %8.3f %8.3f\n", name, sch.name, ws, fi, ws/baseWS)
		}
		fmt.Println()
	}
}
