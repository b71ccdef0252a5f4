package ebm

import (
	"context"

	"ebm/internal/config"
	pbscore "ebm/internal/core"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/profile"
	"ebm/internal/runner"
	"ebm/internal/search"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/tlp"
	"ebm/internal/workload"
)

// Config describes the simulated GPU (the paper's Table I).
type Config = config.GPU

// DefaultConfig returns the baseline Table I machine.
func DefaultConfig() Config { return config.Default() }

// TLPLevels returns the selectable per-application TLP levels (Table II's
// knob positions; 8 levels yield the paper's 64 two-app combinations).
func TLPLevels() []int { return append([]int(nil), config.TLPLevels...) }

// MaxTLP is the largest TLP level (48 warps over two schedulers).
const MaxTLP = config.MaxTLP

// App is a synthetic GPGPU application model (Table IV's suite).
type App = kernel.Params

// Applications returns the 26-application suite.
func Applications() []App { return kernel.All() }

// AppByName looks up a suite application by its Table IV abbreviation.
func AppByName(name string) (App, bool) { return kernel.ByName(name) }

// Workload is a named set of co-scheduled applications.
type Workload = workload.Workload

// RepresentativeWorkloads returns the ten two-application workloads whose
// per-workload panels appear in the paper's Figs. 4, 9, and 10.
func RepresentativeWorkloads() []Workload { return workload.Representative() }

// EvaluatedWorkloads returns the full 25-workload evaluation set.
func EvaluatedWorkloads() []Workload { return workload.Evaluated() }

// ThreeAppWorkloads returns the three-application scalability workloads.
func ThreeAppWorkloads() []Workload { return workload.ThreeApp() }

// WorkloadByName resolves names like "BLK_TRD" (any underscore-joined
// suite applications are accepted).
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// RunOptions configures one simulation; see the fields of sim.Options.
type RunOptions = sim.Options

// Result is the measured outcome of a run.
type Result = sim.Result

// AppResult is one application's measured behaviour.
type AppResult = sim.AppResult

// Run executes one simulation to completion.
func Run(opts RunOptions) (Result, error) {
	s, err := sim.New(opts)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}

// Manager is a TLP management policy.
type Manager = tlp.Manager

// Sample is the per-window telemetry a Manager observes.
type Sample = tlp.Sample

// Decision is a Manager's requested TLP/bypass configuration.
type Decision = tlp.Decision

// SchemeSpec is the canonical serializable description of a TLP
// management scheme: a kind plus typed knobs. Every manager this package
// can build is expressible as a SchemeSpec, and a SchemeSpec round-trips
// through JSON and the flag-string grammar (ParseScheme / String).
type SchemeSpec = spec.SchemeSpec

// RunSpec is the full serializable description of one simulation —
// machine, applications, scheme, run lengths — the service-facing
// request type behind ExecuteSpec and the result cache.
type RunSpec = spec.RunSpec

// ParseScheme parses the canonical scheme grammar, e.g. "static:2,8",
// "pbs-fi:scaling=group", "ccws:hivta=0.2,hyst=3".
func ParseScheme(s string) (SchemeSpec, error) { return spec.ParseScheme(s) }

// SchemeKinds lists every registered scheme kind in presentation order.
func SchemeKinds() []string { return spec.Kinds() }

// SchemeFlagHelp is the one-line usage string for scheme flags.
func SchemeFlagHelp() string { return spec.FlagHelp() }

// NewManager builds the described scheme's manager for numApps
// co-scheduled applications through the registry.
func NewManager(s SchemeSpec, numApps int) (Manager, error) {
	return s.Manager(numApps)
}

// ExecuteSpec runs a declarative run description to completion.
func ExecuteSpec(rs RunSpec) (Result, error) {
	return sim.Execute(context.Background(), rs)
}

// ExecuteSpecContext is ExecuteSpec under a cancellation context: the run
// aborts cooperatively at the next sampling-window boundary and returns
// ctx.Err() with a zero Result.
func ExecuteSpecContext(ctx context.Context, rs RunSpec) (Result, error) {
	return sim.Execute(ctx, rs)
}

// ExecuteSpecCached is ExecuteSpec through an optional result cache (nil
// skips caching) and the shared executor: equivalent requests
// deduplicate and replay bit-identically from disk.
func ExecuteSpecCached(cache *SimCache, rs RunSpec) (Result, error) {
	return simcache.RunCached(context.Background(), cache, nil, 0, rs, nil)
}

// NewStaticManager runs a fixed TLP combination (e.g. ++bestTLP). The
// name is display-only; equivalently labeled runs share cache entries.
func NewStaticManager(name string, tlps []int) Manager {
	return spec.MustManager(spec.Labeled(name, tlps, nil), len(tlps))
}

// NewMaxTLPManager runs every application at maxTLP.
func NewMaxTLPManager(numApps int) Manager {
	return spec.MustManager(spec.MaxTLP(), numApps)
}

// NewDynCTA returns the DynCTA-style per-application modulation baseline.
func NewDynCTA() Manager { return spec.MustManager(spec.DynCTA(), 0) }

// NewModBypass returns the Mod+Bypass baseline (TLP modulation plus L1
// bypassing for cache-insensitive applications).
func NewModBypass() Manager { return spec.MustManager(spec.ModBypass(), 0) }

// NewCCWS returns the cache-conscious wavefront-scheduling-inspired
// baseline; enable the detector with RunOptions.VictimTags (e.g. 32).
func NewCCWS() Manager { return spec.MustManager(spec.CCWS(), 0) }

// PBS is the paper's online pattern-based searching manager.
type PBS = pbscore.PBS

func mustPBS(s SchemeSpec, numApps int) *PBS {
	p, err := spec.PBSManager(s, numApps)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPBSWS returns PBS-WS: pattern-based search maximizing EB-WS.
func NewPBSWS() *PBS { return mustPBS(spec.PBS(metrics.ObjWS), 0) }

// NewPBSFI returns PBS-FI with online-sampled alone-EB scaling.
func NewPBSFI() *PBS { return mustPBS(spec.PBS(metrics.ObjFI), 0) }

// NewPBSFIGroup returns PBS-FI with user-supplied (group) scaling factors.
func NewPBSFIGroup(groupEB []float64) *PBS {
	s := spec.PBS(metrics.ObjFI)
	s.PBS.Scaling = "group"
	s.PBS.GroupEB = append([]float64(nil), groupEB...)
	return mustPBS(s, len(groupEB))
}

// NewPBSHS returns PBS-HS (harmonic weighted speedup objective).
func NewPBSHS() *PBS { return mustPBS(spec.PBS(metrics.ObjHS), 0) }

// Objective selects WS, FI, or HS for searches and metrics.
type Objective = metrics.Objective

// Objectives.
const (
	ObjWS = metrics.ObjWS
	ObjFI = metrics.ObjFI
	ObjHS = metrics.ObjHS
)

// Metric helpers (Table III).
var (
	// Slowdowns computes SD = IPC-Shared / IPC-Alone per application.
	Slowdowns = metrics.Slowdowns
	// WS is the weighted speedup of a slowdown vector.
	WS = metrics.WS
	// FI is the fairness index of a slowdown vector.
	FI = metrics.FI
	// HS is the harmonic weighted speedup of a slowdown vector.
	HS = metrics.HS
	// EB computes effective bandwidth from attained BW and combined miss
	// rate.
	EB = metrics.EB
	// EBWS, EBFI, EBHS are the EB-based proxies.
	EBWS = metrics.EBWS
	EBFI = metrics.EBFI
	EBHS = metrics.EBHS
	// AloneRatio is the Fig. 5 bias measure max(m1/m2, m2/m1).
	AloneRatio = metrics.AloneRatio
)

// ProfileOptions configures alone-run profiling.
type ProfileOptions = profile.Options

// AppProfile is one application's alone profile (a Table IV row).
type AppProfile = profile.AppProfile

// ProfileSuite holds alone profiles for a set of applications.
type ProfileSuite = profile.Suite

// Profile profiles every application alone across all TLP levels,
// producing bestTLP, IPC@bestTLP, EB@bestTLP, and the G1..G4 groups.
// With opts.Cache set (see OpenSimCache), alone-runs replay from disk.
func Profile(apps []App, opts ProfileOptions) (*ProfileSuite, error) {
	return profile.ProfileSuite(context.Background(), apps, opts)
}

// Grid holds one Result per TLP combination of a workload, powering the
// exhaustive comparison points (optWS/FI/HS and BF-WS/FI/HS) and offline
// PBS.
type Grid = search.Grid

// GridOptions configures BuildGrid.
type GridOptions = search.GridOptions

// BuildGrid simulates a workload under every TLP combination.
func BuildGrid(apps []App, opts GridOptions) (*Grid, error) {
	return search.BuildGrid(context.Background(), apps, opts)
}

// AdaptiveOptions configures AdaptiveSearch.
type AdaptiveOptions = search.AdaptiveOptions

// AdaptiveResult is the outcome of one adaptive search.
type AdaptiveResult = search.AdaptiveResult

// AdaptiveSearch approximates the eval-maximizing TLP combination
// without building the exhaustive grid: a coarse pass brackets the
// optimum on a subsampled ladder, a refine pass searches inside the
// bracket, and candidates are pruned by successive halving over short
// horizons (continuations fork from checkpoints when opts.Ckpt is set).
// It can miss the grid's optimum on the paper's machine, and it saves
// work only for a single objective; the figures and the sweep CLI use
// BuildGrid. See DESIGN.md §13.
func AdaptiveSearch(apps []App, eval Eval, opts AdaptiveOptions) (AdaptiveResult, error) {
	return search.Adaptive(context.Background(), apps, eval, opts)
}

// Eval scores one grid cell; see SDEval, EBEval, ITEval.
type Eval = search.Eval

// Grid evaluators.
var (
	// SDEval scores by a slowdown-based objective (needs alone IPCs).
	SDEval = search.SDEval
	// EBEval scores by an EB-based objective (optional scaling).
	EBEval = search.EBEval
	// ITEval scores by raw instruction throughput.
	ITEval = search.ITEval
)

// Runner is the process-wide bounded simulation executor: a priority
// queue with singleflight dedup that profiles, grids, and evaluations
// all submit to.
type Runner = runner.Runner

// NewRunner starts a private pool (tests, embedding); most callers want
// DefaultRunner.
func NewRunner(workers int) *Runner { return runner.New(workers) }

// DefaultRunner returns the shared process-wide pool.
func DefaultRunner() *Runner { return runner.Default() }

// SimCache is the versioned, content-addressed on-disk cache of
// simulation results; cached results are bit-identical to fresh ones.
type SimCache = simcache.Cache

// OpenSimCache opens (creating if needed) a result cache rooted at dir.
func OpenSimCache(dir string) (*SimCache, error) { return simcache.Open(dir) }

// HardwareCost itemizes the mechanism's hardware overheads (Fig. 8).
type HardwareCost = pbscore.HardwareCost

// CostModel returns the overhead accounting for a machine shape.
func CostModel(numApps, numCores, numMemPartitions int) HardwareCost {
	return pbscore.CostModel(numApps, numCores, numMemPartitions)
}
