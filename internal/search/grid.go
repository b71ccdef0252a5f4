// Package search runs workloads under every TLP combination and evaluates
// the paper's offline comparison points on the resulting grid:
//
//   - optWS / optFI / optHS — exhaustive search over the SD-based metric
//     (the oracle the paper normalizes against);
//   - BF-WS / BF-FI / BF-HS — exhaustive search over the EB-based metric
//     (how good EB is as a proxy, with no search error);
//   - PBS-WS/FI/HS (Offline) — the online PBS manager of internal/core
//     driven over grid cells, isolating the algorithm from runtime
//     overheads.
package search

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/core"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/tlp"
)

// GridOptions configures a grid build.
type GridOptions struct {
	Config       config.GPU
	Levels       []int // TLP levels per axis; default config.TLPLevels
	TotalCycles  uint64
	WarmupCycles uint64
	// Parallelism bounds how many grid cells this build keeps in flight at
	// once (it caps submissions to the shared pool, not pool workers).
	Parallelism int

	// Runner is the execution pool cells are submitted to. Nil means the
	// process-wide runner.Default().
	Runner *runner.Runner
	// Cache, when non-nil, serves cells from the on-disk result cache and
	// persists fresh ones — an interrupted build resumes where it stopped.
	Cache *simcache.Cache
	// Ckpt, when non-nil, executes uncached cells through the prefix
	// checkpoint store: every cell of a grid shares one deterministic
	// prefix (the static schemes differ, so in practice each cell shares
	// its prefix with the same cell at other horizons and with earlier
	// interrupted builds), forking from the deepest persisted snapshot
	// instead of replaying from cycle zero.
	Ckpt *ckpt.Store

	// Progress, when non-nil, is called after each combination finishes
	// with the number completed so far, the grid size, and the combination
	// that just completed. Calls are serialized (made under the builder's
	// lock) but may come from any worker goroutine and out of grid order.
	Progress func(done, total int, combo []int)
}

// Grid holds one sim.Result per TLP combination of a workload.
type Grid struct {
	Apps    []kernel.Params
	Levels  []int
	Results []sim.Result // flat, row-major: index = Σ levelIdx[i] * |levels|^i

	combosOnce sync.Once
	combos     [][]int // lazily built Combos cache
}

// Index converts per-app level indices into the flat grid index.
func (g *Grid) Index(levelIdx []int) int {
	idx := 0
	stride := 1
	for _, li := range levelIdx {
		idx += li * stride
		stride *= len(g.Levels)
	}
	return idx
}

// At returns the result for the given per-app TLP levels (values, not
// indices).
func (g *Grid) At(tlps []int) (sim.Result, error) {
	li := make([]int, len(tlps))
	for i, t := range tlps {
		k := indexOf(g.Levels, t)
		if k < 0 {
			return sim.Result{}, fmt.Errorf("search: TLP %d not a grid level %v", t, g.Levels)
		}
		li[i] = k
	}
	return g.Results[g.Index(li)], nil
}

// Combos returns every TLP combination in flat-index order. The slice is
// built once under a sync.Once and cached (evaluation loops call this per
// search), so the first call is safe from concurrent evaluators; callers
// must treat the result as read-only.
func (g *Grid) Combos() [][]int {
	g.combosOnce.Do(g.buildCombos)
	return g.combos
}

func (g *Grid) buildCombos() {
	g.combos = product(axesOf(g.Levels, len(g.Apps)))
}

// axesOf is the axes of an n-app grid over one level ladder.
func axesOf(levels []int, n int) [][]int {
	axes := make([][]int, n)
	for i := range axes {
		axes[i] = levels
	}
	return axes
}

// product enumerates the mixed-radix product of axes in flat-index
// order: app 0 is the least significant digit.
func product(axes [][]int) [][]int {
	total := 1
	for _, ax := range axes {
		total *= len(ax)
	}
	out := make([][]int, total)
	for idx := range out {
		c := make([]int, len(axes))
		rem := idx
		for i, ax := range axes {
			c[i] = ax[rem%len(ax)]
			rem /= len(ax)
		}
		out[idx] = c
	}
	return out
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// BuildGrid simulates the workload under every TLP combination. Each cell
// is a leaf task on the shared executor (PriGrid — plentiful filler work),
// served from opts.Cache when a prior build already persisted it, so an
// interrupted sweep resumes without recomputing finished combinations.
// Cancelling ctx stops new submissions, aborts in-flight cells at their
// next window boundary, and returns an "interrupted after N/M" error
// wrapping ctx.Err(); combinations that completed before the cancel are
// already persisted, which is what makes the interruption resumable.
func BuildGrid(ctx context.Context, apps []kernel.Params, opts GridOptions) (*Grid, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("search: no applications")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Levels == nil {
		opts.Levels = append([]int(nil), config.TLPLevels...)
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	g := &Grid{Apps: append([]kernel.Params(nil), apps...), Levels: opts.Levels}
	combos := g.Combos()
	g.Results = make([]sim.Result, len(combos))

	names := make([]string, len(apps))
	for i := range apps {
		names[i] = apps[i].Name
	}
	ctx, gsp := obs.StartSpan(ctx, "grid-build",
		obs.A("workload", strings.Join(names, "_")), obs.A("cells", strconv.Itoa(len(combos))))
	defer gsp.End()

	var (
		mu   sync.Mutex
		done int
	)
	err := runner.ForEach(ctx, len(combos), opts.Parallelism, func(idx int) error {
		cctx, csp := obs.StartSpan(ctx, "cell", obs.A("combo", fmt.Sprint(combos[idx])))
		res, err := runCombo(cctx, apps, combos[idx], opts)
		csp.End()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		g.Results[idx] = res
		done++
		if opts.Progress != nil {
			opts.Progress(done, len(combos), combos[idx])
		}
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("search: grid build interrupted after %d/%d combinations: %w",
			done, len(combos), cerr)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

func runCombo(ctx context.Context, apps []kernel.Params, tlps []int, opts GridOptions) (sim.Result, error) {
	rs := spec.RunSpec{
		Config:       opts.Config,
		Apps:         apps,
		Scheme:       spec.Static(tlps, nil),
		TotalCycles:  opts.TotalCycles,
		WarmupCycles: opts.WarmupCycles,
	}
	return simcache.RunCached(ctx, opts.Cache, opts.Runner, runner.PriGrid, rs, ckpt.Runner(opts.Ckpt, rs))
}

// Eval is how a grid cell scores under some figure of merit. The closures
// built by SDEval/EBEval/ITEval reuse captured scratch buffers across
// calls, so a single Eval value must not be invoked concurrently; build
// one evaluator per goroutine instead.
type Eval func(r sim.Result) float64

// SDEval builds an evaluator for a slowdown-based objective given the
// per-app alone IPCs (at bestTLP).
func SDEval(obj metrics.Objective, aloneIPC []float64) Eval {
	var ipcBuf, sdBuf []float64
	return func(r sim.Result) float64 {
		ipcBuf = r.IPCsInto(ipcBuf[:0])
		var err error
		sdBuf, err = metrics.SlowdownsInto(sdBuf[:0], ipcBuf, aloneIPC)
		if err != nil {
			return 0
		}
		return obj.SDMetric(sdBuf)
	}
}

// EBEval builds an evaluator for an EB-based objective; scale may be nil.
func EBEval(obj metrics.Objective, scale []float64) Eval {
	var ebBuf []float64
	return func(r sim.Result) float64 {
		ebBuf = r.EBsInto(ebBuf[:0])
		return obj.EBMetric(ebBuf, scale)
	}
}

// ITEval evaluates raw instruction throughput (Observation 2).
func ITEval() Eval {
	var ipcBuf []float64
	return func(r sim.Result) float64 {
		ipcBuf = r.IPCsInto(ipcBuf[:0])
		return metrics.IT(ipcBuf)
	}
}

// Best exhaustively finds the combination maximizing eval. It returns the
// winning TLP combination and its value.
func (g *Grid) Best(eval Eval) ([]int, float64) {
	combos := g.Combos()
	bestIdx, bestV := 0, eval(g.Results[0])
	for i := 1; i < len(combos); i++ {
		if v := eval(g.Results[i]); v > bestV {
			bestV = v
			bestIdx = i
		}
	}
	return combos[bestIdx], bestV
}

// PBSOffline runs PBS-WS/FI/HS (Offline): the online manager of
// internal/core, driven over grid cells instead of a running GPU. Every
// probe reads the cell of the manager's current decision, with zero settle
// windows and one measure window, so the search pays none of the runtime
// overheads. Its sweep ladder is the manager's default ladder ∩ g.Levels,
// and co-runners sweep at config.MaxTLP, which the grid must hold. scale
// holds the alone-EB scaling factors for FI and HS (nil for none). It
// returns the final combination and its EB-metric value; a cell error
// ends the search.
func (g *Grid) PBSOffline(obj metrics.Objective, scale []float64) ([]int, float64, error) {
	p := core.NewPBS(obj)
	p.Scaling = core.NoScale
	if scale != nil {
		p.Scaling, p.GroupValues = core.GroupScale, scale
	}
	p.SettleWindows, p.MeasureWindows = 0, 1
	p.SweepLevels = slices.DeleteFunc(p.SweepLevels, func(l int) bool { return indexOf(g.Levels, l) < 0 })
	d := p.Initial(len(g.Apps))
	s := tlp.Sample{Apps: make([]tlp.AppSample, len(g.Apps))}
	for {
		r, err := g.At(d.TLP)
		if err != nil {
			return nil, 0, err
		}
		if !p.Searching() {
			return d.TLP, obj.EBMetric(r.EBsInto(nil), scale), nil
		}
		for i := range s.Apps {
			s.Apps[i].EB = r.Apps[i].EB
		}
		d = p.OnSample(s)
	}
}
