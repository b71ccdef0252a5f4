package search

import (
	"slices"
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/sim"
)

func smallCfg() config.GPU {
	c := config.Default()
	c.NumCores = 4
	c.NumMemPartitions = 4
	return c
}

func apps(names ...string) []kernel.Params {
	out := make([]kernel.Params, len(names))
	for i, n := range names {
		p, ok := kernel.ByName(n)
		if !ok {
			panic("unknown " + n)
		}
		out[i] = p
	}
	return out
}

func buildSmallGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := BuildGrid(nil, apps("BLK", "BFS"), GridOptions{
		Config:       smallCfg(),
		Levels:       []int{1, 4, 24},
		TotalCycles:  15_000,
		WarmupCycles: 3_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridShapeAndIndexing(t *testing.T) {
	g := buildSmallGrid(t)
	combos := g.Combos()
	if len(combos) != 9 {
		t.Fatalf("%d combos, want 9", len(combos))
	}
	if len(g.Results) != 9 {
		t.Fatalf("%d results", len(g.Results))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		r, err := g.At(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Apps[0].Insts == 0 {
			t.Fatalf("combo %v produced an empty result", c)
		}
		key := string(rune(c[0])) + "/" + string(rune(c[1]))
		if seen[key] {
			t.Fatalf("duplicate combo %v", c)
		}
		seen[key] = true
	}
	// Flat index round trip.
	for i, c := range combos {
		li := []int{indexOf(g.Levels, c[0]), indexOf(g.Levels, c[1])}
		if g.Index(li) != i {
			t.Fatalf("index mismatch for %v", c)
		}
	}
	if _, err := g.At([]int{3, 4}); err == nil {
		t.Fatal("At accepted a non-level TLP")
	}
}

func TestGridResultsMatchCombosByTLP(t *testing.T) {
	g := buildSmallGrid(t)
	// The stored result for (1,24) must actually be the run at TLP 1/24:
	// verify via the reported final TLPs.
	r, err := g.At([]int{1, 24})
	if err != nil {
		t.Fatal(err)
	}
	if r.Apps[0].FinalTLP != 1 || r.Apps[1].FinalTLP != 24 {
		t.Fatalf("grid cell (1,24) holds run with TLPs (%d,%d)",
			r.Apps[0].FinalTLP, r.Apps[1].FinalTLP)
	}
}

func TestBestFindsArgmax(t *testing.T) {
	g := buildSmallGrid(t)
	eval := EBEval(metrics.ObjWS, nil)
	combo, val := g.Best(eval)
	for _, c := range g.Combos() {
		r, _ := g.At(c)
		if eval(r) > val+1e-12 {
			t.Fatalf("Best missed combo %v (found %v)", c, combo)
		}
	}
	r, _ := g.At(combo)
	if eval(r) != val {
		t.Fatal("Best value inconsistent with its combo")
	}
}

func TestEvaluators(t *testing.T) {
	g := buildSmallGrid(t)
	r := g.Results[0]
	alone := []float64{r.Apps[0].IPC * 2, r.Apps[1].IPC * 2}
	if v := SDEval(metrics.ObjWS, alone)(r); v <= 0 || v > 2 {
		t.Fatalf("SD WS eval = %v", v)
	}
	if v := SDEval(metrics.ObjWS, []float64{1})(r); v != 0 {
		t.Fatal("mismatched alone vector should score 0")
	}
	if v := ITEval()(r); v != r.Apps[0].IPC+r.Apps[1].IPC {
		t.Fatal("IT eval")
	}
	if v := EBEval(metrics.ObjFI, nil)(r); v < 0 || v > 1 {
		t.Fatalf("EBFI eval = %v", v)
	}
}

func TestPBSOfflineReturnsValidCombo(t *testing.T) {
	g := buildSmallGrid(t)
	combo, val, err := g.PBSOffline(metrics.ObjWS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(combo) != 2 {
		t.Fatal("combo shape")
	}
	if _, err := g.At(combo); err != nil {
		t.Fatalf("PBSOffline produced a non-grid combo %v", combo)
	}
	if val <= 0 {
		t.Fatalf("value %v", val)
	}
	// The pattern search may be suboptimal but must not be catastrophic:
	// within the (tiny) grid it should reach half the exhaustive best.
	_, best := g.Best(EBEval(metrics.ObjWS, nil))
	if val < 0.5*best {
		t.Fatalf("PBSOffline %v far below exhaustive %v", val, best)
	}
}

func TestPBSOfflineFairnessReturnsValidCombo(t *testing.T) {
	g := buildSmallGrid(t)
	combo, _, err := g.PBSOffline(metrics.ObjFI, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.At(combo); err != nil {
		t.Fatalf("bad combo %v", combo)
	}
}

func TestPBSOfflineNeedsMaxTLPLevel(t *testing.T) {
	// PBS sweeps with co-runners pinned at config.MaxTLP, so a grid
	// without that level fails on the first probe instead of scoring the
	// missing cells as zero.
	g := &Grid{Apps: apps("BLK", "TRD"), Levels: []int{1, 4}, Results: make([]sim.Result, 4)}
	if _, _, err := g.PBSOffline(metrics.ObjWS, nil); err == nil {
		t.Fatal("PBSOffline accepted a grid without the MaxTLP level")
	}
}

func TestBuildGridErrors(t *testing.T) {
	if _, err := BuildGrid(nil, nil, GridOptions{Config: smallCfg()}); err == nil {
		t.Fatal("empty workload accepted")
	}
	bad := smallCfg()
	bad.NumCores = 3 // not divisible between 2 apps
	if _, err := BuildGrid(nil, apps("BLK", "TRD"), GridOptions{
		Config: bad, TotalCycles: 1000,
	}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestThreeAppGrid(t *testing.T) {
	// 3 apps with 2 levels: 8 combos on a tiny machine (3 cores, 1 each).
	cfg := smallCfg()
	cfg.NumCores = 3
	g, err := BuildGrid(nil, apps("BLK", "TRD", "BFS"), GridOptions{
		Config:       cfg,
		Levels:       []int{2, 24},
		TotalCycles:  8_000,
		WarmupCycles: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Combos()) != 8 {
		t.Fatalf("%d combos, want 8", len(g.Combos()))
	}
	combo, _, err := g.PBSOffline(metrics.ObjWS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(combo) != 3 {
		t.Fatalf("3-app PBS combo %v", combo)
	}
}

func TestGridEvalOnSyntheticResults(t *testing.T) {
	// Hand-built 2-app grids over levels {1,4,24} pin PBSOffline's search
	// path for each objective. Cells are (EB0, EB1); the flat index is
	// i0 + 3*i1, so app0's level varies fastest within a row.
	mk := func(eb0, eb1 float64) sim.Result {
		return sim.Result{Apps: []sim.AppResult{{EB: eb0}, {EB: eb1}}}
	}
	for _, tc := range []struct {
		name     string
		obj      metrics.Objective
		scale    []float64
		cells    []sim.Result
		wantPBS  []int
		wantBest []int
	}{{
		// Sweeps at co-24: app0 metric (t0 = 1,4,24) 1.0, 1.4, 0.4 ->
		// drop 1.0, argmax 4; its own EB 0.4, 0.9, 0.1 caps it at 4.
		// app1 metric 0.8, 0.7, 0.4 -> drop 0.4, own-EB cap 4. Critical
		// app0 pinned at 4; app1 tunes down from its cap: (4,4) 1.7,
		// then (4,1) 1.8 wins.
		name: "WS",
		obj:  metrics.ObjWS,
		cells: []sim.Result{
			// t1=1:     t0=1          t0=4          t0=24
			mk(0.5, 0.9), mk(1.0, 0.8), mk(0.2, 0.6),
			mk(0.5, 0.8), mk(1.0, 0.7), mk(0.2, 0.5), // t1=4
			mk(0.4, 0.6), mk(0.9, 0.5), mk(0.1, 0.3), // t1=24
		},
		wantPBS:  []int{4, 1},
		wantBest: []int{4, 1},
	}, {
		// Scaled difference d = EB0/2 - EB1. app0's sweep (t0 = 1,4,24
		// @ t1=24): -0.3, +0.4, -0.1, range 0.7; app1's (t1 @ t0=24):
		// -0.05, -0.1, -0.1, range 0.05, so app0 is critical. Its best
		// crossing endpoint is 24 (|-0.1| < |-0.3|), but its own EB
		// 0.4, 1.6, 0.6 collapses past 4, so Guideline-2 caps it at 4.
		// app1 (rising own EB, no cap) scans 24,4,1 @ t0=4: d = +0.4,
		// -0.2, -0.7; the crossing endpoint nearer zero is 4.
		name:  "FI crossing capped",
		obj:   metrics.ObjFI,
		scale: []float64{2, 1},
		cells: []sim.Result{
			mk(0.3, 1.0), mk(1.0, 1.2), mk(0.5, 0.3),
			mk(0.35, 0.9), mk(1.2, 0.8), mk(0.5, 0.35),
			mk(0.4, 0.5), mk(1.6, 0.4), mk(0.6, 0.4),
		},
		wantPBS:  []int{4, 4},
		wantBest: []int{24, 1},
	}, {
		// Scaled EBs (EB0/1, EB1/4). app0's sweep HS 0.286, 0.643, 0.143
		// -> drop 0.5, argmax 4, own-EB cap 4; app1's 0.5, 0.373, 0.143
		// -> drop 0.357, own-EB cap 4. app0 pinned at 4; app1 tunes
		// (4,4) 0.686 then (4,1) 0.747. Unscaled HS would keep (4,4).
		name:  "HS scaled",
		obj:   metrics.ObjHS,
		scale: []float64{1, 4},
		cells: []sim.Result{
			mk(0.1, 3.6), mk(0.7, 3.2), mk(0.5, 2.0),
			mk(0.15, 2.8), mk(0.8, 2.4), mk(0.4, 1.4),
			mk(0.2, 2.0), mk(0.9, 2.0), mk(0.25, 0.4),
		},
		wantPBS:  []int{4, 1},
		wantBest: []int{4, 1},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			g := &Grid{Apps: apps("BLK", "TRD"), Levels: []int{1, 4, 24}, Results: tc.cells}
			eval := EBEval(tc.obj, tc.scale)
			if combo, _ := g.Best(eval); !slices.Equal(combo, tc.wantBest) {
				t.Fatalf("Best = %v, want %v", combo, tc.wantBest)
			}
			pc, pv, err := g.PBSOffline(tc.obj, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pc, tc.wantPBS) {
				t.Fatalf("PBSOffline = %v, want %v", pc, tc.wantPBS)
			}
			if r, _ := g.At(pc); eval(r) != pv {
				t.Fatalf("PBSOffline value %v inconsistent with its combo", pv)
			}
		})
	}
}
