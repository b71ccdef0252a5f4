package search

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/simcache"
	"ebm/internal/workload"
)

// adaptiveCfg is the reduced machine every adaptive test searches on
// (cacheGridOpts' 4-core/4-partition config).
func adaptiveCfg() config.GPU {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	return cfg
}

// adaptiveOptsFromGrid mirrors a GridOptions into the AdaptiveOptions
// that searches the same space: same machine, horizons, levels, cache,
// and checkpoint store, so full-horizon runs share cache keys with grid
// cells.
func adaptiveOptsFromGrid(g GridOptions) AdaptiveOptions {
	return AdaptiveOptions{
		Config:       g.Config,
		Levels:       g.Levels,
		TotalCycles:  g.TotalCycles,
		WarmupCycles: g.WarmupCycles,
		Parallelism:  g.Parallelism,
		Runner:       g.Runner,
		Cache:        g.Cache,
		Ckpt:         g.Ckpt,
	}
}

// pseudoAlone derives positive per-app "alone" IPC and EB vectors from a
// grid's max-TLP cell, giving the SD- and scaled-EB-based objectives
// realistic surfaces without profiling the full suite.
func pseudoAlone(t *testing.T, g *Grid) (ipc, eb []float64) {
	t.Helper()
	maxC := make([]int, len(g.Apps))
	for i := range maxC {
		maxC[i] = g.Levels[len(g.Levels)-1]
	}
	r, err := g.At(maxC)
	if err != nil {
		t.Fatal(err)
	}
	ipc = r.IPCsInto(nil)
	eb = r.EBsInto(nil)
	for i := range ipc {
		if ipc[i] <= 0 {
			ipc[i] = 1e-6
		}
		if eb[i] <= 0 {
			eb[i] = 1e-6
		}
	}
	return ipc, eb
}

// TestAdaptiveMatchesExhaustive is the correctness contract of DESIGN.md
// §13: for every paper workload and all three objectives in both SD- and
// EB-based form, the adaptive search returns the identical optimal TLP
// combination the exhaustive grid scan returns. Everything runs on the
// full 8-level ladder (64 cells per workload) on the reduced machine,
// over one shared result cache and checkpoint store so full-horizon
// adaptive runs replay the grid's own cells.
func TestAdaptiveMatchesExhaustive(t *testing.T) {
	cfg := adaptiveCfg()
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(8)
	t.Cleanup(pool.Close)
	gopts := GridOptions{
		Config:       cfg,
		TotalCycles:  8_000,
		WarmupCycles: 2_000,
		Parallelism:  8,
		Runner:       pool,
		Cache:        cache,
		Ckpt:         store,
	}

	wls := workload.Evaluated()
	if testing.Short() {
		wls = workload.Representative()
	}
	for _, wl := range wls {
		g, err := BuildGrid(nil, wl.Apps, gopts)
		if err != nil {
			t.Fatalf("%s: grid: %v", wl.Name, err)
		}
		aloneIPC, aloneEB := pseudoAlone(t, g)
		evals := []struct {
			name string
			mk   func() Eval // fresh closure per use: scratch buffers are not shareable
		}{
			{"optWS", func() Eval { return SDEval(metrics.ObjWS, aloneIPC) }},
			{"optFI", func() Eval { return SDEval(metrics.ObjFI, aloneIPC) }},
			{"optHS", func() Eval { return SDEval(metrics.ObjHS, aloneIPC) }},
			{"BF-WS", func() Eval { return EBEval(metrics.ObjWS, nil) }},
			{"BF-FI", func() Eval { return EBEval(metrics.ObjFI, aloneEB) }},
			{"BF-HS", func() Eval { return EBEval(metrics.ObjHS, aloneEB) }},
		}
		for _, ev := range evals {
			want, wantV := g.Best(ev.mk())
			res, err := Adaptive(nil, wl.Apps, ev.mk(), adaptiveOptsFromGrid(gopts))
			if err != nil {
				t.Fatalf("%s/%s: adaptive: %v", wl.Name, ev.name, err)
			}
			if !reflect.DeepEqual(res.Combo, want) {
				t.Errorf("%s/%s: adaptive picked %v (%.6f), exhaustive %v (%.6f)",
					wl.Name, ev.name, res.Combo, res.Value, want, wantV)
			}
			if exhaustive := uint64(len(g.Results)) * gopts.TotalCycles; res.CyclesSubmitted >= exhaustive {
				t.Errorf("%s/%s: adaptive submitted %d cycles, exhaustive equivalent %d — no savings",
					wl.Name, ev.name, res.CyclesSubmitted, exhaustive)
			}
		}
	}
}

// TestAdaptiveHalvesExhaustiveCycles pins the adaptive search's work
// saving (DESIGN.md §13) in engine cycles rather than wall-clock. On the
// reduced machine, BLK_TRD over the full 8-level ladder (64 cells) at a
// 50,000-cycle horizon, the 4-rung successive-halving search for optWS
// into a fresh checkpoint store submits at most half the cycles of the
// exhaustive grid. The horizon matters: at TestAdaptiveMatchesExhaustive's
// 8,000 cycles the 2,000-cycle warmup dominates the short rungs and the
// same search submits ~0.72x.
func TestAdaptiveHalvesExhaustiveCycles(t *testing.T) {
	const total, warmup = 50_000, 2_000
	cfg := adaptiveCfg()
	wl := workload.MustMake("BLK", "TRD")
	levels := config.TLPLevels
	top, err := BuildGrid(nil, wl.Apps, GridOptions{
		Config:       cfg,
		Levels:       levels[len(levels)-1:],
		TotalCycles:  total,
		WarmupCycles: warmup,
	})
	if err != nil {
		t.Fatal(err)
	}
	aloneIPC, _ := pseudoAlone(t, top)
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Adaptive(nil, wl.Apps, SDEval(metrics.ObjWS, aloneIPC), AdaptiveOptions{
		Config:       cfg,
		Levels:       levels,
		TotalCycles:  total,
		WarmupCycles: warmup,
		Rungs:        4,
		Ckpt:         store,
	})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := uint64(len(levels)*len(levels)) * total
	t.Logf("adaptive submitted %d of %d exhaustive cycles (%.3fx)",
		res.CyclesSubmitted, exhaustive, float64(res.CyclesSubmitted)/float64(exhaustive))
	if 2*res.CyclesSubmitted > exhaustive {
		t.Errorf("adaptive submitted %d cycles, more than half the exhaustive %d", res.CyclesSubmitted, exhaustive)
	}
}

// TestAdaptiveKeepAllFullHorizonIsExhaustive pins the degenerate ladder:
// with a single full-horizon rung nothing is pruned, and on the 3-level
// ladder {1, 8, 24} the coarse ladder {1, 24} brackets every level, so
// the adaptive Finals are the whole grid. Each Final must reproduce its
// BuildGrid cell bit-identically — from a separate, fresh cache, so the
// equivalence is the engine's, not the cache's.
func TestAdaptiveKeepAllFullHorizonIsExhaustive(t *testing.T) {
	gopts, _ := cacheGridOpts(t)
	apps := cacheGridApps(t)
	g, err := BuildGrid(nil, apps, gopts)
	if err != nil {
		t.Fatal(err)
	}

	acache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	aopts := adaptiveOptsFromGrid(gopts)
	aopts.Cache = acache
	aopts.Rungs = 1
	res, err := Adaptive(nil, apps, EBEval(metrics.ObjWS, nil), aopts)
	if err != nil {
		t.Fatal(err)
	}
	combos := g.Combos()
	if len(res.Finals) != len(combos) || len(res.Pruned) != 0 {
		t.Fatalf("finals=%d pruned=%d, want %d/0", len(res.Finals), len(res.Pruned), len(combos))
	}
	for i, c := range res.Finals {
		if !reflect.DeepEqual(c.Combo, combos[i]) {
			t.Fatalf("final %d is %v, want %v", i, c.Combo, combos[i])
		}
		if !reflect.DeepEqual(c.Result, g.Results[i]) {
			t.Fatalf("final %d result differs from exhaustive cell", i)
		}
	}
	want, _ := g.Best(EBEval(metrics.ObjWS, nil))
	if !reflect.DeepEqual(res.Combo, want) {
		t.Fatalf("combo %v, want %v", res.Combo, want)
	}
}

// TestAdaptiveCorruptRungCheckpointDegradesCold reuses the checkpoint
// degradation contract: tearing every persisted checkpoint between rungs
// forces each continuation to replay from cycle zero instead of forking,
// and determinism keeps the selected optimum (and every full-horizon
// result) identical to the clean search.
func TestAdaptiveCorruptRungCheckpointDegradesCold(t *testing.T) {
	run := func(corrupt bool) (AdaptiveResult, ckpt.Stats) {
		gopts, _ := cacheGridOpts(t)
		dir := t.TempDir()
		store, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		aopts := adaptiveOptsFromGrid(gopts)
		aopts.Ckpt = store
		aopts.TotalCycles = 20_000 // three distinct rungs: 5k, 10k, 20k
		if corrupt {
			aopts.OnRung = func(RungReport) {
				files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range files {
					if err := os.WriteFile(f, []byte("torn"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		res, err := Adaptive(nil, cacheGridApps(t), EBEval(metrics.ObjWS, nil), aopts)
		if err != nil {
			t.Fatal(err)
		}
		return res, store.Stats()
	}

	clean, cleanStats := run(false)
	torn, tornStats := run(true)
	if cleanStats.Forks == 0 {
		t.Fatal("clean search never forked: rung continuations are not exercising checkpoints")
	}
	if tornStats.Corrupt == 0 {
		t.Fatal("torn search skipped no corrupt checkpoints: the corruption did not bite")
	}
	if !reflect.DeepEqual(torn.Combo, clean.Combo) {
		t.Fatalf("torn-store pick %v differs from clean pick %v", torn.Combo, clean.Combo)
	}
	if len(torn.Finals) != len(clean.Finals) {
		t.Fatalf("finals %d vs %d", len(torn.Finals), len(clean.Finals))
	}
	for i := range torn.Finals {
		if !reflect.DeepEqual(torn.Finals[i].Result, clean.Finals[i].Result) {
			t.Fatalf("final %d (%v) differs between torn and clean stores",
				i, torn.Finals[i].Combo)
		}
	}
}

// TestAdaptivePrunedNeverPollutesCache is the cache-pollution acceptance
// criterion: a pruned candidate's partial-horizon result is cached only
// under its short-TotalCycles key and must never be readable under the
// full-horizon key, and every pruning decision lands in the provenance
// ledger as a pruned@cycles record.
func TestAdaptivePrunedNeverPollutesCache(t *testing.T) {
	gopts, cache := cacheGridOpts(t)
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
	ledger, err := obs.OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetLedger(ledger)

	aopts := adaptiveOptsFromGrid(gopts)
	aopts.TotalCycles = 20_000
	apps := cacheGridApps(t)
	res, err := Adaptive(nil, apps, EBEval(metrics.ObjWS, nil), aopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Pruned) == 0 {
		t.Fatal("search pruned nothing: the halving ladder is not exercising pruning")
	}

	finals := map[string]bool{}
	for _, c := range res.Finals {
		finals[fmt.Sprint(c.Combo)] = true
	}
	a := &adaptive{apps: apps, opts: aopts}
	recs, skipped, err := obs.ReadLedger(ledgerPath)
	if err != nil || skipped != 0 {
		t.Fatalf("ledger read: %v (skipped %d)", err, skipped)
	}
	prunedRecs := map[string]obs.RunRecord{}
	for _, r := range recs {
		if r.Outcome == obs.OutcomePruned {
			prunedRecs[r.Fingerprint] = r
		}
	}
	for _, p := range res.Pruned {
		if finals[fmt.Sprint(p.Combo)] {
			continue // re-entered via the refine bracket and reached full horizon
		}
		if p.Cycles >= aopts.TotalCycles {
			t.Fatalf("pruned %v at %d cycles: pruning at the full horizon is meaningless", p.Combo, p.Cycles)
		}
		fullKey := simcache.Key(a.spec(p.Combo, aopts.TotalCycles))
		if _, ok := cache.Get(fullKey); ok {
			t.Fatalf("pruned combo %v readable under the full-horizon key", p.Combo)
		}
		shortKey := simcache.Key(a.spec(p.Combo, p.Cycles))
		if _, ok := cache.Get(shortKey); !ok {
			t.Fatalf("pruned combo %v missing its short-horizon entry", p.Combo)
		}
		rec, ok := prunedRecs[shortKey]
		if !ok {
			t.Fatalf("pruned combo %v has no pruned ledger record", p.Combo)
		}
		if rec.Cycles != p.Cycles {
			t.Fatalf("pruned record cycles %d, want %d", rec.Cycles, p.Cycles)
		}
		if want := fmt.Sprintf("pruned@%d", p.Cycles); rec.OutcomeString() != want {
			t.Fatalf("pruned record renders %q, want %q", rec.OutcomeString(), want)
		}
	}
}

// TestCombosFirstCallConcurrent hammers the previously-racy lazy Combos
// cache from concurrent evaluators on a grid that was never handed
// through BuildGrid (which used to pre-populate the cache and hide the
// race). Run under -race via the Makefile's verify target.
func TestCombosFirstCallConcurrent(t *testing.T) {
	apps := cacheGridApps(t)
	g := &Grid{Apps: apps, Levels: []int{1, 2, 4, 8, 16, 24}}
	const goroutines = 16
	results := make([][][]int, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = g.Combos()
		}()
	}
	wg.Wait()
	want := results[0]
	if len(want) != 36 {
		t.Fatalf("combos = %d, want 36", len(want))
	}
	for i := 1; i < goroutines; i++ {
		if &results[i][0] != &want[0] || !reflect.DeepEqual(results[i], want) {
			t.Fatalf("goroutine %d saw a different combos slice", i)
		}
	}
}

// TestHorizonLadder pins the rung-horizon planning: whole windows,
// clamped past the warmup, strictly increasing, final rung exactly the
// full horizon.
func TestHorizonLadder(t *testing.T) {
	cases := []struct {
		total, warmup uint64
		rungs         int
		want          []uint64
	}{
		{120_000, 20_000, 3, []uint64{30_000, 60_000, 120_000}},
		{120_000, 20_000, 1, []uint64{120_000}},
		{8_000, 2_000, 3, []uint64{5_000, 8_000}}, // short run collapses to two rungs
		{4_000, 2_000, 3, []uint64{4_000}},        // shorter than a window: single rung
		{50_000, 2_000, 4, []uint64{5_000, 10_000, 25_000, 50_000}},
		{20_000, 20_000, 3, []uint64{20_000}}, // warmup == total: single full rung
	}
	for _, c := range cases {
		got := horizonLadder(c.total, c.warmup, c.rungs)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("horizonLadder(%d, %d, %d) = %v, want %v", c.total, c.warmup, c.rungs, got, c.want)
		}
	}
}

// TestCoarseLevels pins the default subsampling.
func TestCoarseLevels(t *testing.T) {
	got := coarseLevels([]int{1, 2, 4, 6, 8, 12, 16, 24})
	if !reflect.DeepEqual(got, []int{1, 4, 8, 16, 24}) {
		t.Fatalf("coarseLevels = %v", got)
	}
	if got := coarseLevels([]int{1, 8, 24}); !reflect.DeepEqual(got, []int{1, 24}) {
		t.Fatalf("coarseLevels(3) = %v", got)
	}
}
