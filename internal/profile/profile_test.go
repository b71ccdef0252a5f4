package profile

import (
	"reflect"
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/simcache"
)

func smallOpts() Options {
	c := config.Default()
	c.NumCores = 4
	return Options{
		Config:       c,
		CoresAlone:   2,
		Levels:       []int{1, 4, 24},
		TotalCycles:  12_000,
		WarmupCycles: 2_000,
	}
}

func someApps(names ...string) []kernel.Params {
	out := make([]kernel.Params, len(names))
	for i, n := range names {
		p, ok := kernel.ByName(n)
		if !ok {
			panic(n)
		}
		out[i] = p
	}
	return out
}

func openCache(t *testing.T, dir string) *simcache.Cache {
	t.Helper()
	c, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestProfileSuiteFindsBest: an application's profile covers every
// requested level and picks the level with the highest alone IPC.
func TestProfileSuiteFindsBest(t *testing.T) {
	suite, err := ProfileSuite(nil, someApps("JPEG"), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := suite.Profiles["JPEG"]
	if p == nil {
		t.Fatal("JPEG missing from its own suite")
	}
	if len(p.Levels) != 3 {
		t.Fatalf("%d levels", len(p.Levels))
	}
	for _, l := range p.Levels {
		if l.Result.IPC > p.BestIPC+1e-12 {
			t.Fatalf("bestIPC %v below level %d's %v", p.BestIPC, l.TLP, l.Result.IPC)
		}
	}
	if _, ok := p.AtTLP(4); !ok {
		t.Fatal("AtTLP(4) missing")
	}
	if _, ok := p.AtTLP(5); ok {
		t.Fatal("AtTLP(5) invented a level")
	}
	// Latency-bound JPEG should prefer more TLP over TLP=1.
	if p.BestTLP == 1 {
		t.Fatalf("JPEG bestTLP = 1 is implausible")
	}
}

// TestProfileIndependentOfSuite: an application's levels and best-TLP
// fields are the same whether it is profiled alone or inside a larger
// suite, so callers may profile only the applications they read.
func TestProfileIndependentOfSuite(t *testing.T) {
	solo, err := ProfileSuite(nil, someApps("TRD"), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	trio, err := ProfileSuite(nil, someApps("BLK", "TRD", "JPEG"), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	a, b := solo.Profiles["TRD"], trio.Profiles["TRD"]
	if !reflect.DeepEqual(a.Levels, b.Levels) {
		t.Fatalf("levels differ:\n solo %+v\n trio %+v", a.Levels, b.Levels)
	}
	if a.BestTLP != b.BestTLP || a.BestIPC != b.BestIPC || a.BestEB != b.BestEB {
		t.Fatalf("best differs: solo (%d, %v, %v), trio (%d, %v, %v)",
			a.BestTLP, a.BestIPC, a.BestEB, b.BestTLP, b.BestIPC, b.BestEB)
	}
}

func TestProfileSuiteGroups(t *testing.T) {
	suite, err := ProfileSuite(nil, someApps("BLK", "TRD", "JPEG", "GUPS"), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Profiles) != 4 {
		t.Fatalf("%d profiles", len(suite.Profiles))
	}
	counts := map[int]int{}
	for _, p := range suite.Profiles {
		if p.Group < 1 || p.Group > 4 {
			t.Fatalf("group %d out of range", p.Group)
		}
		counts[p.Group]++
	}
	// 4 apps over 4 quartiles: one each.
	for g := 1; g <= 4; g++ {
		if counts[g] != 1 {
			t.Fatalf("group sizes %v, want one per quartile", counts)
		}
	}
	// Group means must be ordered.
	for g := 1; g < 4; g++ {
		if suite.GroupMeanEB[g-1] > suite.GroupMeanEB[g] {
			t.Fatalf("group means not monotone: %v", suite.GroupMeanEB)
		}
	}
}

func TestSuiteAccessors(t *testing.T) {
	suite, err := ProfileSuite(nil, someApps("BLK", "TRD"), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"BLK", "TRD"}
	ipc, err := suite.AloneIPC(names)
	if err != nil || len(ipc) != 2 || ipc[0] <= 0 {
		t.Fatalf("AloneIPC %v %v", ipc, err)
	}
	eb, err := suite.AloneEB(names)
	if err != nil || eb[0] <= 0 {
		t.Fatalf("AloneEB %v %v", eb, err)
	}
	best, err := suite.BestTLPs(names)
	if err != nil || len(best) != 2 {
		t.Fatalf("BestTLPs %v %v", best, err)
	}
	if _, err := suite.AloneIPC([]string{"NOPE"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := suite.GroupEB(names); err != nil {
		t.Fatal(err)
	}
}

// TestCacheRoundTrip: a suite profiled into a result cache replays from
// a fresh handle on the same directory without simulating, and is
// identical to the cold suite.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	apps := someApps("BLK", "TRD")
	opts := smallOpts()
	opts.Cache = openCache(t, dir)
	s1, err := ProfileSuite(nil, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = openCache(t, dir)
	s2, err := ProfileSuite(nil, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w := opts.Cache.Stats().Writes; w != 0 {
		t.Fatalf("reopened cache re-simulated %d runs", w)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("suite changed across the cache round trip")
	}
}

// TestCacheInvalidatedByConfigChange: a profile is keyed by everything
// that shapes its alone-runs, so changing the machine, the alone core
// share, or a run length misses the cache instead of replaying a stale
// profile.
func TestCacheInvalidatedByConfigChange(t *testing.T) {
	dir := t.TempDir()
	apps := someApps("BLK")
	opts := smallOpts()
	opts.Cache = openCache(t, dir)
	if _, err := ProfileSuite(nil, apps, opts); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Options){
		"config":       func(o *Options) { o.Config.L1MSHRs = 999 },
		"cores alone":  func(o *Options) { o.CoresAlone = 1 },
		"total cycles": func(o *Options) { o.TotalCycles += 1000 },
		"warmup":       func(o *Options) { o.WarmupCycles += 500 },
	}
	for name, mutate := range mutations {
		o := smallOpts()
		mutate(&o)
		o.Cache = openCache(t, dir)
		if _, err := ProfileSuite(nil, apps, o); err != nil {
			t.Fatal(err)
		}
		if w := o.Cache.Stats().Writes; w != uint64(len(o.Levels)) {
			t.Errorf("%s change: %d of %d alone-runs simulated", name, w, len(o.Levels))
		}
	}
}

// TestProfileSuiteWarmCache: with a result cache attached, a second suite
// profile replays entirely from disk and produces the identical suite.
func TestProfileSuiteWarmCache(t *testing.T) {
	c := openCache(t, t.TempDir())
	opts := smallOpts()
	opts.Cache = c
	apps := someApps("BLK", "JPEG")
	cold, err := ProfileSuite(nil, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Writes == 0 {
		t.Fatal("no results persisted")
	}
	before := c.Stats()
	warm, err := ProfileSuite(nil, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Writes != before.Writes {
		t.Fatal("warm pass re-simulated")
	}
	if after.Hits-before.Hits < uint64(len(apps)*len(opts.Levels)) {
		t.Fatalf("warm pass hits %d, want ≥ %d", after.Hits-before.Hits, len(apps)*len(opts.Levels))
	}
	for name, p := range cold.Profiles {
		w := warm.Profiles[name]
		if w == nil || w.BestTLP != p.BestTLP || w.BestIPC != p.BestIPC || w.BestEB != p.BestEB {
			t.Fatalf("warm profile for %s differs: %+v vs %+v", name, w, p)
		}
	}
}

func TestAloneRunUsesReducedCores(t *testing.T) {
	app, _ := kernel.ByName("JPEG")
	opts := smallOpts()
	res, err := AloneRun(nil, app, 24, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 cores x 2 schedulers: IPC can never exceed 4.
	if res.Apps[0].IPC > 4.01 {
		t.Fatalf("alone run IPC %v exceeds the 2-core issue bound", res.Apps[0].IPC)
	}
}
