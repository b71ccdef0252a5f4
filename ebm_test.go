package ebm_test

import (
	"testing"

	"ebm"
)

func small() ebm.Config {
	cfg := ebm.DefaultConfig()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	return cfg
}

func TestFacadeBasics(t *testing.T) {
	cfg := ebm.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ebm.Applications()) != 26 {
		t.Fatalf("%d applications", len(ebm.Applications()))
	}
	if _, ok := ebm.AppByName("BFS"); !ok {
		t.Fatal("AppByName")
	}
	if len(ebm.TLPLevels()) != 8 || ebm.MaxTLP != 24 {
		t.Fatal("TLP levels")
	}
	if len(ebm.RepresentativeWorkloads()) != 10 {
		t.Fatal("representative workloads")
	}
	if len(ebm.EvaluatedWorkloads()) != 25 {
		t.Fatal("evaluated workloads")
	}
	if len(ebm.ThreeAppWorkloads()) == 0 {
		t.Fatal("three-app workloads")
	}
	if _, ok := ebm.WorkloadByName("BLK_TRD"); !ok {
		t.Fatal("WorkloadByName")
	}
}

func TestFacadeRunWithPBS(t *testing.T) {
	wl, _ := ebm.WorkloadByName("BLK_BFS")
	res, err := ebm.Run(ebm.RunOptions{
		Config:             small(),
		Apps:               wl.Apps,
		Manager:            ebm.NewPBSWS(),
		TotalCycles:        40_000,
		WarmupCycles:       2_000,
		WindowCycles:       1_000,
		DesignatedSampling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 || res.Apps[0].IPC <= 0 {
		t.Fatal("degenerate result")
	}
}

func TestFacadeManagers(t *testing.T) {
	for _, m := range []ebm.Manager{
		ebm.NewStaticManager("s", []int{2, 8}),
		ebm.NewMaxTLPManager(2),
		ebm.NewDynCTA(),
		ebm.NewModBypass(),
		ebm.NewPBSWS(),
		ebm.NewPBSFI(),
		ebm.NewPBSFIGroup([]float64{1, 2}),
		ebm.NewPBSHS(),
	} {
		if m.Name() == "" {
			t.Error("unnamed manager")
		}
		d := m.Initial(2)
		if len(d.TLP) != 2 {
			t.Errorf("%s: bad initial decision", m.Name())
		}
	}
}

func TestFacadeMetrics(t *testing.T) {
	sd, err := ebm.Slowdowns([]float64{1, 2}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if ebm.WS(sd) != 1.5 || ebm.FI(sd) != 0.5 {
		t.Fatal("metric algebra through facade")
	}
	if ebm.HS(sd) <= 0 || ebm.EB(0.4, 0.2) != 2 {
		t.Fatal("HS/EB")
	}
	if ebm.EBWS([]float64{1, 1}) != 2 || ebm.EBFI([]float64{1, 1}, nil) != 1 {
		t.Fatal("EB metrics")
	}
	if ebm.EBHS([]float64{2, 2}, nil) != 2 {
		t.Fatal("EBHS")
	}
	if ebm.AloneRatio(1, 4) != 4 {
		t.Fatal("AloneRatio")
	}
	if ebm.ObjWS.String() != "WS" {
		t.Fatal("objective")
	}
}

func TestFacadeProfileAndGrid(t *testing.T) {
	blk, _ := ebm.AppByName("BLK")
	trd, _ := ebm.AppByName("TRD")
	suite, err := ebm.Profile([]ebm.App{blk, trd}, ebm.ProfileOptions{
		Config:       small(),
		CoresAlone:   2,
		Levels:       []int{1, 24},
		TotalCycles:  8_000,
		WarmupCycles: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	aloneIPC, err := suite.AloneIPC([]string{"BLK", "TRD"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ebm.BuildGrid([]ebm.App{blk, trd}, ebm.GridOptions{
		Config:       small(),
		Levels:       []int{1, 24},
		TotalCycles:  8_000,
		WarmupCycles: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	combo, v := g.Best(ebm.SDEval(ebm.ObjWS, aloneIPC))
	if len(combo) != 2 || v <= 0 {
		t.Fatal("grid search through facade")
	}
	if c, _ := g.Best(ebm.ITEval()); len(c) != 2 {
		t.Fatal("ITEval")
	}
	if c, _ := g.Best(ebm.EBEval(ebm.ObjFI, nil)); len(c) != 2 {
		t.Fatal("EBEval")
	}
}

func TestFacadeCost(t *testing.T) {
	if ebm.CostModel(2, 16, 8).TotalStorageBits <= 0 {
		t.Fatal("cost model")
	}
}
