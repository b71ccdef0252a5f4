// Package profile performs the paper's alone-run profiling: each
// application executes by itself on the core share it would receive when
// co-scheduled (the full memory system stays attached, exactly as the
// paper defines IPC-Alone), across every TLP level. The profiles yield
// bestTLP, IPC@bestTLP and EB@bestTLP — the contents of Table IV — plus
// the group classification (G1..G4 by alone-EB quartile) used for the
// group-based EB scaling factors.
package profile

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
)

// Options configures the profiler.
type Options struct {
	Config config.GPU
	// CoresAlone is the core count an application receives when alone —
	// the paper's "same set of cores" (half the machine for two-app
	// workloads). Default NumCores/2.
	CoresAlone   int
	Levels       []int
	TotalCycles  uint64
	WarmupCycles uint64
	// Parallelism bounds how many alone-runs this call keeps in flight at
	// once (it caps submissions, not pool workers — the pool is shared).
	Parallelism int
	// Runner is the execution pool alone-runs are submitted to. Nil means
	// the process-wide runner.Default().
	Runner *runner.Runner
	// Cache, when non-nil, serves alone-runs from the on-disk result
	// cache and persists fresh ones.
	Cache *simcache.Cache
	// Ckpt, when non-nil, executes uncached alone-runs through the prefix
	// checkpoint store, forking each from the deepest snapshot a prior
	// (possibly shorter or interrupted) run of the same prefix persisted.
	Ckpt *ckpt.Store
}

func (o *Options) fillDefaults() {
	if o.CoresAlone == 0 {
		o.CoresAlone = o.Config.NumCores / 2
	}
	if o.Levels == nil {
		o.Levels = append([]int(nil), config.TLPLevels...)
	}
	if o.TotalCycles == 0 {
		o.TotalCycles = 120_000
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = 20_000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
}

// LevelResult is the alone behaviour of an application at one TLP level.
type LevelResult struct {
	TLP    int
	Result sim.AppResult
}

// AppProfile is the full alone profile of one application.
type AppProfile struct {
	Name    string
	Levels  []LevelResult
	BestTLP int
	BestIPC float64
	BestEB  float64 // EB at bestTLP
	Group   int     // 1..4 by alone-EB quartile across the profiled set
}

// AtTLP returns the level result for a given TLP value.
func (p *AppProfile) AtTLP(tlp int) (LevelResult, bool) {
	for _, l := range p.Levels {
		if l.TLP == tlp {
			return l, true
		}
	}
	return LevelResult{}, false
}

// AloneRun simulates one application alone at one TLP level, through the
// shared executor (PriProfile — everything downstream waits on profiles)
// and, when opts.Cache is set, the on-disk result cache. The "alone@N"
// label is display-only: the cache key canonicalizes it away, so an
// alone run and an identically shaped static run share one entry.
func AloneRun(ctx context.Context, app kernel.Params, tlpLevel int, opts Options) (sim.Result, error) {
	opts.fillDefaults()
	cfg := opts.Config
	cfg.NumCores = opts.CoresAlone
	rs := spec.RunSpec{
		Config:       cfg,
		Apps:         []kernel.Params{app},
		Scheme:       spec.Labeled(fmt.Sprintf("alone@%d", tlpLevel), []int{tlpLevel}, nil),
		TotalCycles:  opts.TotalCycles,
		WarmupCycles: opts.WarmupCycles,
	}
	ctx, sp := obs.StartSpan(ctx, "alone",
		obs.A("app", app.Name), obs.A("tlp", strconv.Itoa(tlpLevel)))
	defer sp.End()
	return simcache.RunCached(ctx, opts.Cache, opts.Runner, runner.PriProfile, rs, ckpt.Runner(opts.Ckpt, rs))
}

// pickBest selects the level with the highest alone IPC.
func (p *AppProfile) pickBest() {
	best := 0
	for i, l := range p.Levels {
		if l.Result.IPC > p.Levels[best].Result.IPC {
			best = i
		}
	}
	p.BestTLP = p.Levels[best].TLP
	p.BestIPC = p.Levels[best].Result.IPC
	p.BestEB = p.Levels[best].Result.EB
}

// Suite holds profiles for a set of applications, keyed by name.
type Suite struct {
	Profiles map[string]*AppProfile
	// GroupMeanEB[g-1] is the mean alone-EB of group g, the user-supplied
	// scaling factors of Section IV.
	GroupMeanEB [4]float64
}

// ProfileSuite profiles every application and assigns EB groups by
// quartile. The (app, level) grid fans out flat — every alone-run is an
// independent leaf task on the shared pool — with opts.Parallelism
// bounding how many this call keeps in flight; the first failed run
// stops further launches. An application's levels
// and best-TLP fields depend only on it and opts, never on the rest of
// apps; only Group and GroupMeanEB are relative to the set profiled.
// With opts.Cache set, every alone-run replays from the result cache.
func ProfileSuite(ctx context.Context, apps []kernel.Params, opts Options) (*Suite, error) {
	opts.fillDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartSpan(ctx, "profile-suite", obs.A("apps", strconv.Itoa(len(apps))))
	defer sp.End()
	s := &Suite{Profiles: make(map[string]*AppProfile, len(apps))}

	profiles := make([]*AppProfile, len(apps))
	for i, app := range apps {
		profiles[i] = &AppProfile{Name: app.Name, Levels: make([]LevelResult, len(opts.Levels))}
	}
	nl := len(opts.Levels)
	err := runner.ForEach(ctx, len(apps)*nl, opts.Parallelism, func(i int) error {
		ai, li := i/nl, i%nl
		res, err := AloneRun(ctx, apps[ai], opts.Levels[li], opts)
		if err != nil {
			return err
		}
		profiles[ai].Levels[li] = LevelResult{TLP: opts.Levels[li], Result: res.Apps[0]}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, p := range profiles {
		p.pickBest()
		s.Profiles[p.Name] = p
	}
	s.assignGroups()
	return s, nil
}

// assignGroups splits the suite into EB quartiles: G1 lowest .. G4 highest.
func (s *Suite) assignGroups() {
	type ne struct {
		name string
		eb   float64
	}
	var all []ne
	for n, p := range s.Profiles {
		all = append(all, ne{n, p.BestEB})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].eb != all[j].eb {
			return all[i].eb < all[j].eb
		}
		return all[i].name < all[j].name
	})
	var sums [4]float64
	var counts [4]int
	for i, e := range all {
		g := i * 4 / len(all) // 0..3
		s.Profiles[e.name].Group = g + 1
		sums[g] += e.eb
		counts[g]++
	}
	for g := 0; g < 4; g++ {
		if counts[g] > 0 {
			s.GroupMeanEB[g] = sums[g] / float64(counts[g])
		}
	}
}

// AloneIPC returns the IPC@bestTLP vector for the named applications.
func (s *Suite) AloneIPC(names []string) ([]float64, error) {
	out := make([]float64, len(names))
	for i, n := range names {
		p, ok := s.Profiles[n]
		if !ok {
			return nil, fmt.Errorf("profile: no profile for %q", n)
		}
		out[i] = p.BestIPC
	}
	return out, nil
}

// AloneEB returns the EB@bestTLP vector (exact scaling factors).
func (s *Suite) AloneEB(names []string) ([]float64, error) {
	out := make([]float64, len(names))
	for i, n := range names {
		p, ok := s.Profiles[n]
		if !ok {
			return nil, fmt.Errorf("profile: no profile for %q", n)
		}
		out[i] = p.BestEB
	}
	return out, nil
}

// GroupEB returns the group-mean scaling factors for the named apps (the
// paper's user-supplied option).
func (s *Suite) GroupEB(names []string) ([]float64, error) {
	out := make([]float64, len(names))
	for i, n := range names {
		p, ok := s.Profiles[n]
		if !ok {
			return nil, fmt.Errorf("profile: no profile for %q", n)
		}
		out[i] = s.GroupMeanEB[p.Group-1]
	}
	return out, nil
}

// BestTLPs returns the bestTLP vector for the named apps (the ++bestTLP
// baseline combination).
func (s *Suite) BestTLPs(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		p, ok := s.Profiles[n]
		if !ok {
			return nil, fmt.Errorf("profile: no profile for %q", n)
		}
		out[i] = p.BestTLP
	}
	return out, nil
}
