package search

import (
	"os"
	"reflect"
	"testing"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/workload"
)

func cacheGridOpts(t *testing.T) (GridOptions, *simcache.Cache) {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	c, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(4)
	t.Cleanup(pool.Close)
	return GridOptions{
		Config:       cfg,
		Levels:       []int{1, 8, 24},
		TotalCycles:  8_000,
		WarmupCycles: 2_000,
		Parallelism:  4,
		Runner:       pool,
		Cache:        c,
	}, c
}

func cacheGridApps(t *testing.T) []kernel.Params {
	t.Helper()
	a, _ := kernel.ByName("BLK")
	b, _ := kernel.ByName("BFS")
	return []kernel.Params{a, b}
}

// TestBuildGridWarmRebuildBitIdentical: a second build over a populated
// cache must be all hits and reproduce the grid exactly.
func TestBuildGridWarmRebuildBitIdentical(t *testing.T) {
	opts, c := cacheGridOpts(t)
	apps := cacheGridApps(t)
	cold, err := BuildGrid(nil, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(cold.Results)
	if got := c.Stats().Writes; got != uint64(cells) {
		t.Fatalf("persisted %d cells, want %d", got, cells)
	}
	before := c.Stats()
	warm, err := BuildGrid(nil, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Writes != before.Writes {
		t.Fatal("warm rebuild re-simulated")
	}
	if after.Hits-before.Hits != uint64(cells) {
		t.Fatalf("warm rebuild hits %d, want %d", after.Hits-before.Hits, cells)
	}
	// Bit-identity: reflect.DeepEqual on float64 fields is exact bit
	// comparison for non-NaN values, and the engine produces no NaNs.
	if !reflect.DeepEqual(cold.Results, warm.Results) {
		t.Fatal("warm grid differs from cold grid")
	}
}

// TestBuildGridResumesPartialGrid: deleting a subset of persisted entries
// simulates an interrupted sweep; the rebuild recomputes exactly the
// deleted cells and nothing else.
func TestBuildGridResumesPartialGrid(t *testing.T) {
	opts, c := cacheGridOpts(t)
	apps := cacheGridApps(t)
	cold, err := BuildGrid(nil, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(cold.Results)

	ents, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	deleted := 0
	for i, e := range ents {
		if i%3 == 0 {
			if err := os.Remove(c.Dir() + "/" + e.Name()); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	if deleted == 0 || deleted == cells {
		t.Fatalf("bad partition: deleted %d of %d", deleted, cells)
	}

	before := c.Stats()
	resumed, err := BuildGrid(nil, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if got := after.Writes - before.Writes; got != uint64(deleted) {
		t.Fatalf("resume recomputed %d cells, want exactly the %d deleted", got, deleted)
	}
	if got := after.Hits - before.Hits; got != uint64(cells-deleted) {
		t.Fatalf("resume hit %d cells, want %d", got, cells-deleted)
	}
	if !reflect.DeepEqual(cold.Results, resumed.Results) {
		t.Fatal("resumed grid differs from the original")
	}
}

// TestBuildGridNilCacheStillWorks guards the uncached path.
func TestBuildGridNilCacheStillWorks(t *testing.T) {
	opts, _ := cacheGridOpts(t)
	opts.Cache = nil
	g, err := BuildGrid(nil, cacheGridApps(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Results) != len(opts.Levels)*len(opts.Levels) {
		t.Fatalf("grid size %d", len(g.Results))
	}
	for i, r := range g.Results {
		if r.Cycles == 0 {
			t.Fatalf("cell %d empty", i)
		}
	}
}

// TestBuildGridForksSimulateOnlyTails pins the sub-linear cold sweep of
// DESIGN.md §11 in engine cycles rather than wall-clock: a cold 9-cell
// BLK_TRD grid at 50,000 cycles, over a store holding every cell's
// 30,000-cycle prefix, forks each cell, simulates exactly the 20,000-cycle
// tails, and is bit-identical to the same grid simulated from cycle zero.
func TestBuildGridForksSimulateOnlyTails(t *testing.T) {
	const prefix, total = 30_000, 50_000
	wl := workload.MustMake("BLK", "TRD")
	build := func(total uint64, store *ckpt.Store) (*Grid, uint64) {
		t.Helper()
		before := sim.CyclesSimulated()
		g, err := BuildGrid(nil, wl.Apps, GridOptions{
			Config:       adaptiveCfg(),
			Levels:       []int{1, 8, 24},
			TotalCycles:  total,
			WarmupCycles: 2_000,
			Ckpt:         store,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g, sim.CyclesSimulated() - before
	}
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// 30,000 cycles is 6 default windows; Every(6) persists exactly the
	// run-end snapshot of each combination.
	store.SetEvery(6)
	build(prefix, store)
	store.SetEvery(0) // read-only: the cold sweep forks, never writes

	forked, forkedCycles := build(total, store)
	cold, coldCycles := build(total, nil)
	cells := uint64(len(cold.Results))
	if cells != 9 || coldCycles != cells*total {
		t.Fatalf("cold grid: %d cells, %d cycles; want 9 cells, %d cycles", cells, coldCycles, 9*total)
	}
	if want := cells * (total - prefix); forkedCycles != want {
		t.Errorf("forked grid simulated %d cycles, want %d (tails only)", forkedCycles, want)
	}
	if f := store.Stats().Forks; f != cells {
		t.Errorf("forked grid made %d forks, want %d", f, cells)
	}
	if !reflect.DeepEqual(forked.Results, cold.Results) {
		t.Error("forked grid differs from the grid simulated from cycle zero")
	}
}
