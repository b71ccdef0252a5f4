// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each experiment is a
// function writing a text rendition of the paper's panel; cmd/paperfigs
// dispatches them and bench_test.go wraps them in benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/profile"
	"ebm/internal/runner"
	"ebm/internal/search"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

// Options configures an experiment environment.
type Options struct {
	Config config.GPU

	// GridCycles/GridWarmup are the per-combination run lengths for the
	// exhaustive searches.
	GridCycles, GridWarmup uint64

	// EvalCycles/EvalWarmup are the run lengths for the final scheme
	// comparisons (long enough to amortize online search like the paper's
	// full-application runs).
	EvalCycles, EvalWarmup uint64

	// WindowCycles is the sampling window for online managers.
	WindowCycles uint64

	// Workloads overrides the evaluation set (default: the 25 evaluated
	// two-app workloads).
	Workloads []workload.Workload

	Parallelism int

	// SimCache, when non-empty, is the directory of the shared on-disk
	// simulation-result cache: grids, evaluation runs, and alone profiles
	// all persist there and replay on later runs.
	SimCache string

	// Ckpt, when non-nil, is the prefix-checkpoint store: every uncached
	// simulation — profiles, grid cells, evaluation runs — forks from the
	// deepest persisted snapshot of its deterministic prefix instead of
	// replaying from cycle zero.
	Ckpt *ckpt.Store

	// Runner is the execution pool simulations are submitted to. Nil
	// means the process-wide runner.Default().
	Runner *runner.Runner

	// Ledger, when non-nil, receives one provenance record per completed
	// cached run — profiles, grid cells, and evaluation runs alike
	// (requires SimCache; the ledger hangs off the result cache handle).
	Ledger *obs.Ledger
}

func (o *Options) fillDefaults() {
	if o.Config.NumCores == 0 {
		o.Config = config.Default()
	}
	if o.GridCycles == 0 {
		o.GridCycles = 120_000
	}
	if o.GridWarmup == 0 {
		o.GridWarmup = 20_000
	}
	if o.EvalCycles == 0 {
		o.EvalCycles = 600_000
	}
	if o.EvalWarmup == 0 {
		o.EvalWarmup = 10_000
	}
	if o.WindowCycles == 0 {
		o.WindowCycles = 2_500
	}
	if o.Workloads == nil {
		o.Workloads = workload.Evaluated()
	}
}

// Env carries the shared state: the machine, the alone profiles, the
// execution pool, and the in-process + on-disk result caches.
type Env struct {
	Opt   Options
	Suite *profile.Suite

	// ctx is the lifecycle of every simulation the environment submits:
	// experiment Run functions inherit it implicitly (keeping the
	// Experiment signature stable) and a cancel aborts grids, evals, and
	// profiles cooperatively. Set by NewEnv; never nil.
	ctx context.Context

	cache *simcache.Cache
	ckpt  *ckpt.Store        // nil = cold execution for cache misses
	pool  *runner.Runner     // nil = runner.Default() at submission time
	gridM memo[*search.Grid] // per-workload exhaustive grids
	evalM memo[*Eval]        // per-workload scheme evaluations
}

// memo caches successful computations by key. Concurrent misses for one
// key share a single computation; errors are not cached, so a failed
// computation is retried by the next caller.
type memo[V any] struct {
	sf runner.Group
	mu sync.Mutex
	m  map[string]V
}

func (c *memo[V]) get(key string, compute func() (V, error)) (V, error) {
	lookup := func() (V, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		v, ok := c.m[key]
		return v, ok
	}
	if v, ok := lookup(); ok {
		return v, nil
	}
	r, _, err := c.sf.Do(key, func() (any, error) {
		if v, ok := lookup(); ok { // filled while this caller waited
			return v, nil
		}
		v, err := compute()
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.m == nil {
			c.m = map[string]V{}
		}
		c.m[key] = v
		return v, nil
	})
	if err != nil {
		var zero V
		return zero, err
	}
	return r.(V), nil
}

// NewEnv profiles the full application suite (replaying alone-runs from
// the result cache when SimCache is set) and returns a ready
// environment. ctx governs the initial profiling and every simulation
// later submitted through the environment; nil means
// context.Background().
func NewEnv(ctx context.Context, opt Options) (*Env, error) {
	opt.fillDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	var cache *simcache.Cache
	if opt.SimCache != "" {
		var err error
		cache, err = simcache.Open(opt.SimCache)
		if err != nil {
			return nil, err
		}
		cache.SetLedger(opt.Ledger)
	}
	suite, err := profile.ProfileSuite(ctx, kernel.All(), profile.Options{
		Config:       opt.Config,
		TotalCycles:  opt.GridCycles,
		WarmupCycles: opt.GridWarmup,
		Parallelism:  opt.Parallelism,
		Runner:       opt.Runner,
		Cache:        cache,
		Ckpt:         opt.Ckpt,
	})
	if err != nil {
		return nil, err
	}
	return &Env{
		Opt:   opt,
		Suite: suite,
		ctx:   ctx,
		cache: cache,
		ckpt:  opt.Ckpt,
		pool:  opt.Runner,
	}, nil
}

// Context returns the environment's lifecycle context.
func (e *Env) Context() context.Context { return e.ctx }

// Cache returns the environment's result cache (nil when -simcache is
// off), e.g. for hit/miss reporting and obs instrumentation.
func (e *Env) Cache() *simcache.Cache { return e.cache }

// Ckpt returns the environment's prefix-checkpoint store (nil when
// checkpointing is off), e.g. for fork reporting and obs
// instrumentation.
func (e *Env) Ckpt() *ckpt.Store { return e.ckpt }

// buildGrid is search.BuildGrid, replaceable in tests (the Env.Grid
// duplicate-build regression test swaps in a blocking build).
var buildGrid = search.BuildGrid

// Grid returns (building and caching on first use) the exhaustive
// TLP-combination grid for a workload. Concurrent callers for the same
// workload share one build; a failed build is not cached.
func (e *Env) Grid(w workload.Workload) (*search.Grid, error) {
	return e.gridM.get(w.Name, func() (*search.Grid, error) {
		gctx, gsp := obs.StartSpan(e.ctx, "env-grid", obs.A("workload", w.Name))
		defer gsp.End()
		return buildGrid(gctx, w.Apps, search.GridOptions{
			Config:       e.Opt.Config,
			TotalCycles:  e.Opt.GridCycles,
			WarmupCycles: e.Opt.GridWarmup,
			Parallelism:  e.Opt.Parallelism,
			Runner:       e.pool,
			Cache:        e.cache,
			Ckpt:         e.ckpt,
		})
	})
}

// Run executes a declarative run description through the shared executor
// (PriEval), the on-disk result cache and the checkpoint store. Every
// simulation a panel performs funnels through here or through the
// profile and grid layers, which share the cache and the store; a panel
// that reads the policy's decisions reads them from the result's
// decision record.
func (e *Env) Run(rs spec.RunSpec) (sim.Result, error) {
	return simcache.RunCached(e.ctx, e.cache, e.pool, runner.PriEval, rs, ckpt.Runner(e.ckpt, rs))
}

// EvalSpec is the evaluation-length run description for a workload under
// a scheme: the paper's comparison conditions (designated sampling, the
// configured window) at full evaluation length.
func (e *Env) EvalSpec(w workload.Workload, sch spec.SchemeSpec) spec.RunSpec {
	return spec.RunSpec{
		Config:             e.Opt.Config,
		Apps:               w.Apps,
		Scheme:             sch,
		TotalCycles:        e.Opt.EvalCycles,
		WarmupCycles:       e.Opt.EvalWarmup,
		WindowCycles:       e.Opt.WindowCycles,
		DesignatedSampling: true,
	}
}

// RunScheme evaluates a workload under a scheme at evaluation length.
func (e *Env) RunScheme(w workload.Workload, sch spec.SchemeSpec) (sim.Result, error) {
	return e.Run(e.EvalSpec(w, sch))
}

// RunStatic runs a workload at a fixed TLP combination for the evaluation
// length.
func (e *Env) RunStatic(w workload.Workload, tlps []int) (sim.Result, error) {
	return e.RunScheme(w, spec.Static(tlps, nil))
}

// Alone returns (aloneIPC, aloneEB, bestTLPs) for a workload's apps.
func (e *Env) Alone(w workload.Workload) (ipc, eb []float64, best []int, err error) {
	names := w.Names()
	if ipc, err = e.Suite.AloneIPC(names); err != nil {
		return
	}
	if eb, err = e.Suite.AloneEB(names); err != nil {
		return
	}
	best, err = e.Suite.BestTLPs(names)
	return
}

// SD converts a result into the slowdown vector against alone IPCs.
func SD(r sim.Result, aloneIPC []float64) []float64 {
	sd, err := metrics.Slowdowns(r.IPCs(), aloneIPC)
	if err != nil {
		panic(err) // alone IPCs are always positive by construction
	}
	return sd
}

// Outcome is one scheme's measured behaviour on one workload.
type Outcome struct {
	Scheme string
	Combo  []int // nil for dynamic schemes
	WS     float64
	FI     float64
	HS     float64
	IT     float64
	Result sim.Result
}

// Eval holds every scheme outcome for one workload (the unit behind
// Figs. 9, 10, and the HS panel).
type Eval struct {
	Workload workload.Workload
	AloneIPC []float64
	AloneEB  []float64
	BestTLPs []int
	Outcomes map[string]Outcome
}

// Scheme names used across the evaluation figures.
const (
	SchBestTLP   = "++bestTLP"
	SchMaxTLP    = "++maxTLP"
	SchDynCTA    = "++DynCTA"
	SchCCWS      = "++CCWS"
	SchModBypass = "Mod+Bypass"
	SchBatch     = "++Batch"
	SchWRS       = "++WRS"
	SchPBSWS     = "PBS-WS"
	SchPBSFI     = "PBS-FI"
	SchPBSHS     = "PBS-HS"
	SchPBSWSOff  = "PBS-WS(Offline)"
	SchPBSFIOff  = "PBS-FI(Offline)"
	SchPBSHSOff  = "PBS-HS(Offline)"
	SchBFWS      = "BF-WS"
	SchBFFI      = "BF-FI"
	SchBFHS      = "BF-HS"
	SchOptWS     = "optWS"
	SchOptFI     = "optFI"
	SchOptHS     = "optHS"
)

// FigureSchemes is the catalog of executable (non-offline) comparison
// schemes the figures evaluate, as registry specs. bestTLPs is the
// profiled per-app combination that resolves ++bestTLP; the remaining
// entries are workload-independent. Offline points (opt*, BF-*, PBS-*
// (Offline)) are grid searches, not managers, so they have no spec.
func FigureSchemes(bestTLPs []int) map[string]spec.SchemeSpec {
	return map[string]spec.SchemeSpec{
		SchBestTLP:   spec.BestTLP(bestTLPs),
		SchMaxTLP:    spec.MaxTLP(),
		SchDynCTA:    spec.DynCTA(),
		SchCCWS:      spec.CCWS(),
		SchModBypass: spec.ModBypass(),
		SchBatch:     spec.Batch(),
		SchWRS:       spec.WRS(),
		SchPBSWS:     spec.PBS(metrics.ObjWS),
		SchPBSFI:     spec.PBS(metrics.ObjFI),
		SchPBSHS:     spec.PBS(metrics.ObjHS),
	}
}

// GridPick is one static combination the evaluation picks off a
// workload's exhaustive grid; Name is its scheme name.
type GridPick struct {
	Name string
	Pick func(*search.Grid) ([]int, error)
}

// GridPicks lists the grid picks in report order: the slowdown optima,
// the brute-force EB optima, then PBS-Offline's searches. aloneIPC scales
// the slowdown objectives, aloneEB the EB searches' FI and HS.
func GridPicks(aloneIPC, aloneEB []float64) []GridPick {
	best := func(eval search.Eval) func(*search.Grid) ([]int, error) {
		return func(g *search.Grid) ([]int, error) {
			c, _ := g.Best(eval)
			return c, nil
		}
	}
	offline := func(obj metrics.Objective, scale []float64) func(*search.Grid) ([]int, error) {
		return func(g *search.Grid) ([]int, error) {
			c, _, err := g.PBSOffline(obj, scale)
			return c, err
		}
	}
	return []GridPick{
		{SchOptWS, best(search.SDEval(metrics.ObjWS, aloneIPC))},
		{SchOptFI, best(search.SDEval(metrics.ObjFI, aloneIPC))},
		{SchOptHS, best(search.SDEval(metrics.ObjHS, aloneIPC))},
		{SchBFWS, best(search.EBEval(metrics.ObjWS, nil))},
		{SchBFFI, best(search.EBEval(metrics.ObjFI, aloneEB))},
		{SchBFHS, best(search.EBEval(metrics.ObjHS, aloneEB))},
		{SchPBSWSOff, offline(metrics.ObjWS, nil)},
		{SchPBSFIOff, offline(metrics.ObjFI, aloneEB)},
		{SchPBSHSOff, offline(metrics.ObjHS, aloneEB)},
	}
}

// EvalWorkload measures every comparison scheme on one workload. Static
// combinations discovered by the searches are re-run at evaluation length;
// online schemes run with full overheads.
func (e *Env) EvalWorkload(w workload.Workload) (*Eval, error) {
	_, sp := obs.StartSpan(e.ctx, "eval-workload", obs.A("workload", w.Name))
	defer sp.End()
	aloneIPC, aloneEB, bestTLPs, err := e.Alone(w)
	if err != nil {
		return nil, err
	}
	g, err := e.Grid(w)
	if err != nil {
		return nil, err
	}

	// Static combos per scheme.
	combos := map[string][]int{
		SchBestTLP: bestTLPs,
		SchMaxTLP:  maxCombo(len(w.Apps)),
	}
	for _, p := range GridPicks(aloneIPC, aloneEB) {
		if combos[p.Name], err = p.Pick(g); err != nil {
			return nil, err
		}
	}

	ev := &Eval{
		Workload: w,
		AloneIPC: aloneIPC,
		AloneEB:  aloneEB,
		BestTLPs: bestTLPs,
		Outcomes: map[string]Outcome{},
	}

	// All evaluation-length runs are independent leaf simulations: fan
	// them out on the shared pool — each distinct static combo once, plus
	// every online scheme.
	figSchemes := FigureSchemes(bestTLPs)
	online := []struct {
		name string
		sch  spec.SchemeSpec
	}{
		{SchDynCTA, figSchemes[SchDynCTA]},
		{SchModBypass, figSchemes[SchModBypass]},
		{SchBatch, figSchemes[SchBatch]},
		{SchWRS, figSchemes[SchWRS]},
		{SchPBSWS, figSchemes[SchPBSWS]},
		{SchPBSFI, figSchemes[SchPBSFI]},
		{SchPBSHS, figSchemes[SchPBSHS]},
	}
	// Distinct static combos are collected before the fan-out so every
	// goroutine writes only its own slot.
	var statics [][]int
	slot := map[string]int{}
	for _, c := range combos {
		k := fmt.Sprint(c)
		if _, ok := slot[k]; !ok {
			slot[k] = len(statics)
			statics = append(statics, c)
		}
	}
	staticResults := make([]sim.Result, len(statics))
	onlineResults := make([]sim.Result, len(online))
	err = runner.ForEach(e.ctx, len(statics)+len(online), 0, func(i int) (err error) {
		if i < len(statics) {
			staticResults[i], err = e.RunStatic(w, statics[i])
		} else {
			onlineResults[i-len(statics)], err = e.RunScheme(w, online[i-len(statics)].sch)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	for name, c := range combos {
		ev.add(name, c, staticResults[slot[fmt.Sprint(c)]], aloneIPC)
	}
	for i, o := range online {
		ev.add(o.name, nil, onlineResults[i], aloneIPC)
	}
	return ev, nil
}

func (ev *Eval) add(name string, combo []int, r sim.Result, aloneIPC []float64) {
	sd := SD(r, aloneIPC)
	ev.Outcomes[name] = Outcome{
		Scheme: name,
		Combo:  combo,
		WS:     metrics.WS(sd),
		FI:     metrics.FI(sd),
		HS:     metrics.HS(sd),
		IT:     metrics.IT(r.IPCs()),
		Result: r,
	}
}

func maxCombo(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = config.MaxTLP
	}
	return c
}

// Experiment is a runnable paper panel.
type Experiment struct {
	ID    string
	Title string
	Run   func(e *Env, w io.Writer) error
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table I: simulated GPU configuration", Table1},
		{"table2", "Table II: evaluated TLP configurations", Table2},
		{"table3", "Table III: evaluated metrics (algebraic check)", Table3},
		{"table4", "Table IV: application characteristics", Table4},
		{"fig1", "Fig. 1: WS and FI for BFS_FFT under bestTLP/maxTLP/opt", Fig1},
		{"fig2", "Fig. 2: effect of TLP on IPC/BW/CMR/EB for BFS", Fig2},
		{"fig3", "Fig. 3: effective bandwidth across the hierarchy", Fig3},
		{"fig4", "Fig. 4: per-app SD and EB, bestTLP vs opt", Fig4},
		{"fig5", "Fig. 5: IPC alone-ratio vs EB alone-ratio", Fig5},
		{"fig6", "Fig. 6: EB-WS patterns for BLK_TRD", Fig6},
		{"fig7", "Fig. 7: PBS-FI and PBS-HS walkthrough on BLK_TRD", Fig7},
		{"fig8", "Fig. 8: hardware organization overheads", Fig8},
		{"fig9", "Fig. 9: weighted speedup of all schemes", Fig9},
		{"fig10", "Fig. 10: fairness of all schemes", Fig10},
		{"fig11", "Fig. 11: TLP over time for BLK_BFS under PBS", Fig11},
		{"fig12", "HS panel (reconstructed): harmonic speedup of all schemes", Fig12},
		{"cores", "Sensitivity: core partitioning (reconstructed)", SensCores},
		{"l2part", "Sensitivity: L2 way partitioning (reconstructed)", SensL2},
		{"3app", "Scalability: three-application workloads (reconstructed)", ThreeApp},
		{"ablation", "Ablations: objective, search, window, scaling, sampling", Ablations},
		{"extras", "Extensions: CCWS baseline, kernel phases + drift, DRAM refresh", Extras},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, x := range Registry() {
		if x.ID == id {
			return x, true
		}
	}
	return Experiment{}, false
}

// sortedSchemes returns outcome names in a stable presentation order.
func sortedSchemes(m map[string]Outcome) []string {
	order := []string{
		SchBestTLP, SchMaxTLP, SchDynCTA, SchModBypass, SchBatch, SchWRS,
		SchPBSWS, SchPBSWSOff, SchBFWS, SchOptWS,
		SchPBSFI, SchPBSFIOff, SchBFFI, SchOptFI,
		SchPBSHS, SchPBSHSOff, SchBFHS, SchOptHS,
	}
	var out []string
	seen := map[string]bool{}
	for _, n := range order {
		if _, ok := m[n]; ok {
			out = append(out, n)
			seen[n] = true
		}
	}
	var rest []string
	for n := range m {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}
