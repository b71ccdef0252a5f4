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
	"context"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"ebm"
	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/experiments"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/policy"
	"ebm/internal/search"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
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
		if c, _ := g.PBSOffline(ebm.EBEval(ebm.ObjWS, nil), nil); len(c) != 2 {
			b.Fatal("search failed")
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
			g.PBSOfflineFI(scale, nil)
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

// --- Warm-cache workflow (DESIGN.md §8). ---

// benchFigsEnv builds a paperfigs-quick-shaped environment (profile suite,
// grids on demand, evaluation loop) on a reduced machine, backed by the
// result cache at dir.
func benchFigsEnv(b *testing.B, dir string) *experiments.Env {
	b.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	e, err := experiments.NewEnv(nil, experiments.Options{
		Config:       cfg,
		GridCycles:   8_000,
		GridWarmup:   1_000,
		EvalCycles:   20_000,
		EvalWarmup:   1_000,
		WindowCycles: 1_000,
		Workloads: []workload.Workload{
			workload.MustMake("BLK", "BFS"),
			workload.MustMake("BFS", "FFT"),
		},
		SimCache: dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchFigsPanel(b *testing.B, e *experiments.Env) {
	b.Helper()
	x, ok := experiments.ByID("fig9")
	if !ok {
		b.Fatal("fig9 not registered")
	}
	if err := x.Run(e, io.Discard); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPaperFigsQuickCold measures the cold path of the warm-cache
// workflow: every iteration profiles, builds grids, and evaluates into a
// fresh (empty) result cache, as a first `paperfigs -all -quick` would.
func BenchmarkPaperFigsQuickCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFigsPanel(b, benchFigsEnv(b, b.TempDir()))
	}
}

// BenchmarkPaperFigsQuickWarm is the same work against a prewarmed cache:
// a fresh environment per iteration whose every simulation replays from
// disk. The Makefile's figs-bench target asserts this stays at most 0.2x
// of the cold benchmark (the >=5x warm speedup contract).
func BenchmarkPaperFigsQuickWarm(b *testing.B) {
	dir := b.TempDir()
	benchFigsPanel(b, benchFigsEnv(b, dir)) // prewarm: pay the simulations once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFigsPanel(b, benchFigsEnv(b, dir))
	}
}

// --- Fork-from-checkpoint workflow (DESIGN.md §11). ---

// benchCkptGrid builds the 36-cell static grid (two apps, six TLP levels
// per axis) on the reduced machine at the given horizon, with each
// uncached cell executing through store when one is supplied.
func benchCkptGrid(b *testing.B, total uint64, cacheDir string, store *ckpt.Store) {
	b.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	wl := workload.MustMake("BLK", "TRD")
	var cache *simcache.Cache
	if cacheDir != "" {
		var err error
		cache, err = simcache.Open(cacheDir)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := search.BuildGrid(nil, wl.Apps, search.GridOptions{
		Config:       cfg,
		Levels:       []int{1, 2, 4, 8, 16, 24},
		TotalCycles:  total,
		WarmupCycles: 2_000,
		Cache:        cache,
		Ckpt:         store,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCkptSweepCold measures a straight cold grid sweep: every
// iteration simulates all 36 combinations from cycle zero into a fresh
// (empty) result cache.
func BenchmarkCkptSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchCkptGrid(b, 50_000, b.TempDir(), nil)
	}
}

// BenchmarkCkptSweepForked is the same cold sweep forking from prefix
// checkpoints: an untimed shorter-horizon build persists one engine
// snapshot per combination at cycle 30,000, then every timed iteration —
// still against a fresh, empty result cache — restores each cell from its
// snapshot and simulates only the remaining 20,000 cycles. The Makefile's
// ckpt-bench target asserts this stays at most 0.5x of the cold benchmark
// (the sub-linear cold-sweep contract).
func BenchmarkCkptSweepForked(b *testing.B) {
	store, err := ckpt.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	// 30,000 cycles is 6 default windows; Every(6) persists exactly the
	// run-end snapshot of each combination.
	store.SetEvery(6)
	benchCkptGrid(b, 30_000, "", store) // prewarm: pay the shared prefixes once
	store.SetEvery(0)                   // read-only: timed iterations fork, never write
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCkptGrid(b, 50_000, b.TempDir(), store)
	}
}

// --- Adaptive coarse-to-fine TLP search (DESIGN.md §13). ---

// benchSearchSetup is the shared shape of the search benchmarks: the
// reduced machine, the BLK_TRD workload, the paper's full eight-level
// ladder (64 cells exhaustively), and a 50,000-cycle full horizon.
func benchSearchSetup() (config.GPU, workload.Workload, []int, uint64, uint64) {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	return cfg, workload.MustMake("BLK", "TRD"), ebm.TLPLevels(), 50_000, 2_000
}

// benchAloneIPC derives positive per-app "alone" IPCs from the max-TLP
// cell, the same shortcut the search tests use: it gives the
// slowdown-based objective a realistic peaked surface without profiling
// the full alone suite. Runs before the timed sub-benchmarks.
func benchAloneIPC(b *testing.B, cfg config.GPU, wl workload.Workload, levels []int, total, warmup uint64) []float64 {
	b.Helper()
	g, err := search.BuildGrid(nil, wl.Apps, search.GridOptions{
		Config:       cfg,
		Levels:       levels[len(levels)-1:],
		TotalCycles:  total,
		WarmupCycles: warmup,
	})
	if err != nil {
		b.Fatal(err)
	}
	maxC := make([]int, len(wl.Apps))
	for i := range maxC {
		maxC[i] = levels[len(levels)-1]
	}
	r, err := g.At(maxC)
	if err != nil {
		b.Fatal(err)
	}
	ipc := r.IPCsInto(nil)
	for i := range ipc {
		if ipc[i] <= 0 {
			ipc[i] = 1e-6
		}
	}
	return ipc
}

// BenchmarkAdaptiveVsExhaustive contrasts the two offline searches for
// the same optimum — the paper's optWS pick, maximizing SD-based weighted
// speedup — both fully cold per iteration. The exhaustive side simulates
// every grid cell at the full horizon; the adaptive side runs the
// coarse-to-fine successive-halving search against a fresh checkpoint
// store (rung continuations fork instead of replaying). Both report the
// engine cycles actually executed as simcycles/op; the Makefile's
// search-bench target asserts adaptive stays at most 0.5x of exhaustive
// wall-clock and records the cycle ratio in BENCH_8.json.
func BenchmarkAdaptiveVsExhaustive(b *testing.B) {
	cfg, wl, levels, total, warmup := benchSearchSetup()
	aloneIPC := benchAloneIPC(b, cfg, wl, levels, total, warmup)

	b.Run("exhaustive", func(b *testing.B) {
		eval := search.SDEval(ebm.ObjWS, aloneIPC)
		work0 := sim.CyclesSimulated()
		for i := 0; i < b.N; i++ {
			g, err := search.BuildGrid(nil, wl.Apps, search.GridOptions{
				Config:       cfg,
				Levels:       levels,
				TotalCycles:  total,
				WarmupCycles: warmup,
			})
			if err != nil {
				b.Fatal(err)
			}
			g.Best(eval)
		}
		b.ReportMetric(float64(sim.CyclesSimulated()-work0)/float64(b.N), "simcycles/op")
	})

	b.Run("adaptive", func(b *testing.B) {
		eval := search.SDEval(ebm.ObjWS, aloneIPC)
		work0 := sim.CyclesSimulated()
		for i := 0; i < b.N; i++ {
			store, err := ckpt.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := search.Adaptive(nil, wl.Apps, eval, search.AdaptiveOptions{
				Config:       cfg,
				Levels:       levels,
				TotalCycles:  total,
				WarmupCycles: warmup,
				Rungs:        4,
				Ckpt:         store,
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sim.CyclesSimulated()-work0)/float64(b.N), "simcycles/op")
	})
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

// BenchmarkSimulatorCyclesObs is BenchmarkSimulatorCycles with every
// observability sink enabled (metrics registry, event journal, phase
// polling). The Makefile's obs-bench target asserts its ns/op stays
// within 5% of the plain benchmark (DESIGN.md §7's overhead contract).
func BenchmarkSimulatorCyclesObs(b *testing.B) {
	wl := workload.MustMake("BLK", "BFS")
	const cycles = 50_000
	// The observer outlives runs (a scrape endpoint serves many
	// simulations), so its construction and metric registration are
	// one-time setup, not steady-state overhead; keep them untimed.
	observer := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Journal: obs.NewJournal(),
		PhaseFn: func() string { return "stable" },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.Options{
			Config:      config.Default(),
			Apps:        wl.Apps,
			TotalCycles: cycles,
			Obs:         observer,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
	}
	b.ReportMetric(float64(cycles*uint64(b.N))/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSimulatorCyclesSandboxed is BenchmarkSimulatorCycles with the
// manager wrapped in the policy sandbox (panic isolation and decision
// validation). The Makefile's policy-bench target asserts
// its ns/op stays within 5% of the plain benchmark (the sandbox overhead
// contract of DESIGN.md §14).
func BenchmarkSimulatorCyclesSandboxed(b *testing.B) {
	wl := workload.MustMake("BLK", "BFS")
	const cycles = 50_000
	// The guard outlives runs like an observer does; construction stays
	// untimed. It wraps the same default manager sim.New would build.
	guard := policy.Wrap(spec.MustManager(spec.MaxTLP(), len(wl.Apps)), policy.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.Options{
			Config:      config.Default(),
			Apps:        wl.Apps,
			TotalCycles: cycles,
			Manager:     guard,
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

// --- Span tracing + provenance overhead (DESIGN.md §12). ---

// benchTraceGrid builds the 36-cell static grid cold at a short horizon
// into a fresh result cache, under whatever tracer the context carries
// and whatever ledger the cache carries.
func benchTraceGrid(b *testing.B, ctx context.Context, cache *simcache.Cache) {
	b.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	wl := workload.MustMake("BLK", "TRD")
	if _, err := search.BuildGrid(ctx, wl.Apps, search.GridOptions{
		Config:       cfg,
		Levels:       []int{1, 2, 4, 8, 16, 24},
		TotalCycles:  20_000,
		WarmupCycles: 2_000,
		Cache:        cache,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceSweepPlain measures the cold grid sweep with no tracer
// and no ledger — the uninstrumented baseline.
func BenchmarkTraceSweepPlain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cache, err := simcache.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		benchTraceGrid(b, context.Background(), cache)
	}
}

// BenchmarkTraceSweepTraced is the same cold sweep with the full
// observability stack on: a span tracer on the context and a provenance
// ledger on the cache, both live for every cell. The Makefile's
// trace-bench target asserts this stays at most 1.05x of the plain
// benchmark (the DESIGN.md §12 overhead contract: spans and provenance
// are orchestration-granularity and never measurable on a real sweep).
func BenchmarkTraceSweepTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cache, err := simcache.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		ledger, err := obs.OpenLedger(filepath.Join(b.TempDir(), "ledger.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		cache.SetLedger(ledger)
		ctx := obs.WithTracer(context.Background(), obs.NewTracer())
		benchTraceGrid(b, ctx, cache)
		if err := ledger.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
