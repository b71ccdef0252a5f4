package ebm_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (regenerating the panel's data end to end), plus
// ablation benches for the design choices DESIGN.md calls out and
// microbenchmarks of the simulator substrate.
//
// The experiment environment is shared and cached across benchmarks: the
// first benchmark touching a workload pays for its exhaustive grid; later
// iterations reuse it, so -benchtime=1x is the intended way to regenerate
// everything:
//
//	go test -bench=. -benchmem -benchtime=1x

import (
	"io"
	"sync"
	"testing"

	"ebm"
	"ebm/internal/config"
	"ebm/internal/experiments"
	"ebm/internal/kernel"
	"ebm/internal/sim"
	"ebm/internal/workload"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns the shared benchmark environment: the default Table I
// machine at reduced run lengths, over the ten representative workloads.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(nil, experiments.Options{
			Config:       config.Default(),
			GridCycles:   40_000,
			GridWarmup:   8_000,
			EvalCycles:   100_000,
			EvalWarmup:   5_000,
			WindowCycles: 2_000,
			Workloads:    workload.Representative(),
		})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func benchExperiment(b *testing.B, id string) {
	e := env(b)
	x, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Run(e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table. ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// --- One benchmark per paper figure. ---

func BenchmarkFig1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12HS regenerates the reconstructed harmonic-speedup panel.
func BenchmarkFig12HS(b *testing.B) { benchExperiment(b, "fig12") }

// --- Sensitivity and scalability panels (Section VI-D, reconstructed). ---

func BenchmarkSensCores(b *testing.B) { benchExperiment(b, "cores") }
func BenchmarkSensL2(b *testing.B)    { benchExperiment(b, "l2part") }
func BenchmarkThreeApp(b *testing.B)  { benchExperiment(b, "3app") }

// --- Ablation benches (design choices from DESIGN.md). ---

func BenchmarkAblationObjective(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkExtras regenerates the extension panels (CCWS baseline, kernel
// phases with drift-triggered re-search, DRAM refresh fidelity).
func BenchmarkExtras(b *testing.B) { benchExperiment(b, "extras") }

// BenchmarkAblationNaive contrasts the sample count of pattern-based
// searching against naive exhaustive online sampling for one workload.
func BenchmarkAblationNaive(b *testing.B) {
	e := env(b)
	wl := workload.MustMake("BLK", "TRD")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := e.Grid(wl)
		if err != nil {
			b.Fatal(err)
		}
		if c, _, err := g.PBSOffline(ebm.ObjWS, nil); err != nil || len(c) != 2 {
			b.Fatal("search failed", err)
		}
		if c, _ := g.Best(ebm.EBEval(ebm.ObjWS, nil)); len(c) != 2 {
			b.Fatal("exhaustive failed")
		}
	}
}

// BenchmarkAblationWindow runs online PBS-WS at two window lengths.
func BenchmarkAblationWindow(b *testing.B) {
	e := env(b)
	wl := workload.MustMake("BLK", "BFS")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, win := range []uint64{1_000, 5_000} {
			s, err := sim.New(sim.Options{
				Config:             e.Opt.Config,
				Apps:               wl.Apps,
				Manager:            ebm.NewPBSWS(),
				TotalCycles:        e.Opt.EvalCycles,
				WarmupCycles:       e.Opt.EvalWarmup,
				WindowCycles:       win,
				DesignatedSampling: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			s.Run()
		}
	}
}

// BenchmarkAblationScaling compares EB-FI scaling-factor sources offline.
func BenchmarkAblationScaling(b *testing.B) {
	e := env(b)
	wl := workload.MustMake("BLK", "TRD")
	exact, err := e.Suite.AloneEB(wl.Names())
	if err != nil {
		b.Fatal(err)
	}
	group, err := e.Suite.GroupEB(wl.Names())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := e.Grid(wl)
		if err != nil {
			b.Fatal(err)
		}
		for _, scale := range [][]float64{nil, group, exact} {
			if _, _, err := g.PBSOffline(ebm.ObjFI, scale); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationSampling compares designated vs aggregated telemetry.
func BenchmarkAblationSampling(b *testing.B) {
	e := env(b)
	wl := workload.MustMake("BFS", "FFT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, designated := range []bool{true, false} {
			s, err := sim.New(sim.Options{
				Config:             e.Opt.Config,
				Apps:               wl.Apps,
				Manager:            ebm.NewPBSWS(),
				TotalCycles:        e.Opt.EvalCycles,
				WarmupCycles:       e.Opt.EvalWarmup,
				WindowCycles:       e.Opt.WindowCycles,
				DesignatedSampling: designated,
			})
			if err != nil {
				b.Fatal(err)
			}
			s.Run()
		}
	}
}

// --- Substrate microbenchmarks. ---

// BenchmarkSimulatorCycles measures raw simulation speed: simulated core
// cycles per wall second on the full two-application machine.
func BenchmarkSimulatorCycles(b *testing.B) {
	wl := workload.MustMake("BLK", "BFS")
	const cycles = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.Options{
			Config:      config.Default(),
			Apps:        wl.Apps,
			TotalCycles: cycles,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
	}
	b.ReportMetric(float64(cycles*uint64(b.N))/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkAloneProfile measures one application's full TLP profile.
func BenchmarkAloneProfile(b *testing.B) {
	app, _ := kernel.ByName("BFS")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ebm.Profile([]ebm.App{app}, ebm.ProfileOptions{
			Config:       config.Default(),
			TotalCycles:  30_000,
			WarmupCycles: 5_000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarpStream measures synthetic instruction generation.
func BenchmarkWarpStream(b *testing.B) {
	p, _ := kernel.ByName("BFS")
	s := kernel.NewWarpStream(&p, 0, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Current()
		s.Advance()
	}
}
