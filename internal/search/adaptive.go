package search

// Adaptive coarse-to-fine TLP search with checkpoint-forked successive
// halving (DESIGN.md §13). The exhaustive searches simulate levels^apps
// combinations for the full horizon; Adaptive finds the same optimum in
// a fraction of the engine work by combining two prunes:
//
//   - Coarse→fine over the level ladder: a first pass searches a
//     subsampled ladder (every other level plus both endpoints),
//     brackets every near-winning finalist within ±1 coarse step per
//     app, and a second pass refines over the full levels inside the
//     union of those brackets only.
//   - Successive halving over horizons: in the coarse pass, every
//     candidate first simulates a short horizon (TotalCycles >> k,
//     floored to whole sampling windows), the dominated fraction is
//     pruned — near-ties of the cut survive (slack), since their
//     order often swaps by the full horizon — and survivors continue to
//     the next horizon. With a checkpoint store each rung's run ends on
//     a window boundary and persists its run-end snapshot, so the
//     continuation forks from it and pays only the tail cycles. The
//     refine pass never halves: its candidates are bracketed because
//     their neighbourhood wins at the full horizon, and short horizons
//     can rank late-blooming cells arbitrarily low.
//
// Every simulation goes through the same RunSpec/simcache path as an
// exhaustive grid cell, so full-horizon results share cache keys with
// BuildGrid cells bit-identically, and partial-horizon results are
// cached under their own shorter-TotalCycles keys — a pruned run can
// never be read back under a full-horizon key. Pruning decisions are
// recorded in the provenance ledger as "pruned@cycles" records.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
)

const (
	// keepFrac is the candidate fraction surviving each pruning rung (at
	// least one candidate always survives): successive halving.
	keepFrac = 0.5
	// slack guards both passes against short-horizon misranking. At a
	// pruning rung, a candidate below the keepFrac cut still survives when
	// its value is within this relative distance of the last kept
	// candidate's (near-ties at a short horizon often swap order by the
	// full horizon). The refine bracket is likewise the union of the
	// neighbourhoods of every coarse finalist within this relative
	// distance of the coarse winner, not just the winner's own.
	slack = 0.05
)

// AdaptiveOptions configures an adaptive search. Config, TotalCycles,
// and WarmupCycles follow the same conventions as GridOptions.
type AdaptiveOptions struct {
	Config config.GPU
	// Levels is the full per-app TLP ladder the search optimizes over
	// (the exhaustive grid's axis); default config.TLPLevels. The coarse
	// pass searches coarseLevels(Levels).
	Levels []int

	TotalCycles  uint64
	WarmupCycles uint64

	// Rungs is the length of the halving horizon ladder (including the
	// final full-horizon rung): rung r simulates TotalCycles>>(Rungs-1-r)
	// cycles, floored to whole sampling windows and clamped past the
	// warmup. Default 3; 1 disables horizon halving.
	Rungs int

	// Parallelism bounds in-flight candidate simulations per rung
	// (default runtime.NumCPU), mirroring GridOptions.Parallelism.
	Parallelism int

	Runner *runner.Runner
	Cache  *simcache.Cache
	// Ckpt makes rung continuations sub-linear: each rung's run-end
	// snapshot is persisted at a window boundary and the next rung forks
	// from it. Without a store the search still prunes the same
	// candidates but survivors replay their prefixes from cycle zero.
	Ckpt *ckpt.Store

	// OnRung, when non-nil, is called after every completed rung with
	// the pruning outcome. Calls are sequential.
	OnRung func(RungReport)
}

// RungReport describes one completed rung of the halving ladder.
type RungReport struct {
	Phase     string // "coarse" or "refine"
	Rung      int    // 0-based within the phase
	Cycles    uint64 // horizon candidates were simulated to
	Survivors int    // candidates continuing to the next rung
	Pruned    int    // candidates dropped at this rung
}

// Candidate is one combination's standing in the search.
type Candidate struct {
	Combo  []int
	Value  float64    // eval of Result
	Result sim.Result // result at the deepest horizon this candidate reached

	index int // flat index over the full Levels ladder (exhaustive tie-break order)
}

// PrunedCandidate records a combination dropped at a halving rung.
type PrunedCandidate struct {
	Combo  []int
	Cycles uint64 // horizon it had simulated to when pruned
}

// AdaptiveResult is the outcome of one adaptive search.
type AdaptiveResult struct {
	Combo []int   // winning TLP combination
	Value float64 // its eval at the full horizon

	// Finals holds every candidate evaluated at the full horizon, in
	// flat-index order with bit-exact grid-cell results.
	Finals []Candidate
	// Pruned lists the combinations dropped at halving rungs.
	Pruned []PrunedCandidate

	Evaluated int // distinct combinations simulated at any horizon
	FullRuns  int // combinations that reached the full horizon
	// CyclesSubmitted sums each distinct combination's deepest horizon —
	// the engine-cycle budget the search asked for, counting each rung
	// continuation at its tail length (what it costs when forking from
	// the previous rung's checkpoint). The exhaustive equivalent is
	// levels^apps × TotalCycles.
	CyclesSubmitted uint64
}

// Adaptive finds the TLP combination maximizing eval over the full
// levels^apps grid without building it. On the 4-core/4-partition
// machine at an 8,000-cycle horizon it returns the identical combination
// as BuildGrid + Grid.Best for every paper workload
// (TestAdaptiveMatchesExhaustive); on the paper's machine and horizons it
// can pick a different one, and DESIGN.md §13 spells out why. eval is
// called serially (the SDEval/EBEval closures reuse scratch buffers).
func Adaptive(ctx context.Context, apps []kernel.Params, eval Eval, opts AdaptiveOptions) (AdaptiveResult, error) {
	if len(apps) == 0 {
		return AdaptiveResult{}, fmt.Errorf("search: no applications")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Levels == nil {
		opts.Levels = append([]int(nil), config.TLPLevels...)
	}
	if opts.Rungs <= 0 {
		opts.Rungs = 3
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}

	coarse := coarseLevels(opts.Levels)
	names := make([]string, len(apps))
	for i := range apps {
		names[i] = apps[i].Name
	}
	ctx, asp := obs.StartSpan(ctx, "adaptive-search",
		obs.A("workload", strings.Join(names, "_")),
		obs.A("levels", fmt.Sprint(opts.Levels)), obs.A("coarse", fmt.Sprint(coarse)))
	defer asp.End()

	a := &adaptive{
		apps:     append([]kernel.Params(nil), apps...),
		opts:     opts,
		coarse:   coarse,
		horizons: horizonLadder(opts.TotalCycles, opts.WarmupCycles, opts.Rungs),
		deepest:  map[string]uint64{},
	}

	// Coarse pass: bracket the optimum on the subsampled ladder, halving
	// up the horizon ladder.
	coarseFinals, err := a.ladder(ctx, "coarse", a.candidates(product(axesOf(a.coarse, len(apps)))), eval, a.horizons)
	if err != nil {
		return AdaptiveResult{}, err
	}
	// Refine pass: the full-ladder combinations inside ±1 coarse step of
	// every near-winning coarse finalist per app, minus those the coarse
	// pass already carried to the full horizon. The bracket is evaluated
	// straight at the full horizon with no halving: these candidates are
	// in the bracket precisely because their neighbourhood wins at the
	// full horizon, and a cell whose steady state emerges late can rank
	// arbitrarily low at a short one — the small refine set buys its
	// exactness at full price.
	refineCombos := a.bracketCombos(coarseFinals)
	refineFinals, err := a.ladder(ctx, "refine", a.candidates(refineCombos), eval, a.horizons[len(a.horizons)-1:])
	if err != nil {
		return AdaptiveResult{}, err
	}

	finals := append(coarseFinals, refineFinals...)
	sort.SliceStable(finals, func(i, j int) bool { return finals[i].index < finals[j].index })
	best := bestScan(finals)

	a.res.Combo = best.Combo
	a.res.Value = best.Value
	a.res.Finals = finals
	a.res.FullRuns = len(finals)
	a.res.Evaluated = len(a.deepest)
	for _, h := range a.deepest {
		a.res.CyclesSubmitted += h
	}
	return a.res, nil
}

// coarseLevels subsamples a level ladder for the bracketing pass: every
// other level starting at the first, plus the last (so both endpoints
// are always represented).
func coarseLevels(levels []int) []int {
	var out []int
	for i := 0; i < len(levels); i += 2 {
		out = append(out, levels[i])
	}
	if len(levels) > 0 && out[len(out)-1] != levels[len(levels)-1] {
		out = append(out, levels[len(levels)-1])
	}
	return out
}

// horizonLadder builds the strictly increasing run-length ladder: rung r
// is total>>(rungs-1-r) floored to whole default sampling windows (so
// every rung ends on a window boundary and its run-end checkpoint is
// forkable) and clamped past the warmup (a shorter run has no
// measurement region). The last rung is always exactly total, matching
// the exhaustive grid's cache keys.
func horizonLadder(total, warmup uint64, rungs int) []uint64 {
	const wc = sim.DefaultWindowCycles
	var hs []uint64
	for r := 0; r < rungs; r++ {
		h := total >> uint(rungs-1-r)
		h = h / wc * wc
		if h <= warmup {
			h = (warmup/wc + 1) * wc
		}
		if h >= total || r == rungs-1 {
			h = total
		}
		if len(hs) > 0 && h <= hs[len(hs)-1] {
			continue // degenerate ladders collapse to fewer rungs
		}
		hs = append(hs, h)
	}
	return hs
}

// adaptive carries one search's state.
type adaptive struct {
	apps     []kernel.Params
	opts     AdaptiveOptions
	coarse   []int // coarseLevels(opts.Levels)
	horizons []uint64
	res      AdaptiveResult

	// deepest maps a combination key to the deepest horizon it was
	// submitted at, for the CyclesSubmitted accounting and for deduping
	// refine candidates already carried to the full horizon.
	deepest map[string]uint64
}

func comboKey(c []int) string { return fmt.Sprint(c) }

// candidates wraps combos with their flat index over the full ladder —
// the exhaustive scan order, which is also the tie-break order.
func (a *adaptive) candidates(combos [][]int) []Candidate {
	g := Grid{Apps: a.apps, Levels: a.opts.Levels} // index arithmetic only
	cands := make([]Candidate, 0, len(combos))
	for _, c := range combos {
		li := make([]int, len(c))
		for i, t := range c {
			li[i] = indexOf(a.opts.Levels, t)
		}
		cands = append(cands, Candidate{Combo: c, index: g.Index(li)})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].index < cands[j].index })
	return cands
}

// bracketCombos enumerates the refine candidates: the union of the
// full-ladder neighbourhoods (±1 coarse step per app) of every coarse
// finalist scoring within slack of the coarse winner, excluding
// combinations the coarse pass already evaluated at the full horizon.
// Bracketing near-winners and not just the winner keeps a sharply peaked
// off-ladder optimum reachable when its coarse proxies run close but do
// not win.
func (a *adaptive) bracketCombos(finals []Candidate) [][]int {
	best := bestScan(finals)
	thr := slackFloor(rankValue(best.Value))
	seen := map[string]bool{}
	for _, c := range finals {
		seen[comboKey(c.Combo)] = true
	}
	// Near-winners in value order, capped at three neighbourhoods: on a
	// flat surface everything is a near-winner, and bracketing all of it
	// would regrow the exhaustive grid.
	near := append([]Candidate(nil), finals...)
	sortCandidates(near)
	if len(near) > 3 {
		near = near[:3]
	}
	var out [][]int
	for _, f := range near {
		if rankValue(f.Value) < thr {
			continue
		}
		for _, c := range a.neighbourhood(f.Combo) {
			if k := comboKey(c); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// neighbourhood enumerates the full-ladder combinations within ±1 coarse
// step of the given combo on every axis.
func (a *adaptive) neighbourhood(combo []int) [][]int {
	axes := make([][]int, len(combo))
	for i, w := range combo {
		ci := indexOf(a.coarse, w)
		lo, hi := w, w
		if ci > 0 {
			lo = a.coarse[ci-1]
		}
		if ci+1 < len(a.coarse) {
			hi = a.coarse[ci+1]
		}
		for _, l := range a.opts.Levels {
			if l >= lo && l <= hi {
				axes[i] = append(axes[i], l)
			}
		}
	}
	return product(axes)
}

// ladder runs one phase's candidates up the given horizon ladder,
// pruning the dominated fraction at every rung but the last, and returns
// the survivors with their full-horizon results. A single-entry ladder
// is a plain full-horizon pass with no pruning.
func (a *adaptive) ladder(ctx context.Context, phase string, cands []Candidate, eval Eval, horizons []uint64) ([]Candidate, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	for r, h := range horizons {
		if err := a.runAll(ctx, phase, cands, h); err != nil {
			return nil, err
		}
		for i := range cands {
			cands[i].Value = eval(cands[i].Result)
		}
		pruned := 0
		if r < len(horizons)-1 {
			sortCandidates(cands)
			keep := int(math.Ceil(keepFrac * float64(len(cands)))) // in [1, n] for n >= 1
			if keep < len(cands) {
				// Slack guard: short-horizon near-ties of the last kept
				// candidate survive too — their order against it often
				// swaps by the full horizon. The rescue is capped at half
				// the nominal prune set so flat surfaces (where everything
				// is a near-tie) still make halving progress.
				thr := slackFloor(rankValue(cands[keep-1].Value))
				limit := keep + (len(cands)-keep+1)/2
				for keep < limit && rankValue(cands[keep].Value) >= thr {
					keep++
				}
			}
			if keep < len(cands) {
				for _, c := range cands[keep:] {
					a.res.Pruned = append(a.res.Pruned, PrunedCandidate{Combo: c.Combo, Cycles: h})
					a.recordPruned(c.Combo, h)
				}
				pruned = len(cands) - keep
				cands = cands[:keep]
			}
		}
		if a.opts.OnRung != nil {
			a.opts.OnRung(RungReport{Phase: phase, Rung: r, Cycles: h, Survivors: len(cands), Pruned: pruned})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].index < cands[j].index })
	return cands, nil
}

// runAll simulates every candidate to horizon h, bounded by Parallelism,
// through the shared cache/checkpoint path. Each candidate's RunSpec is
// the exhaustive grid cell's with TotalCycles=h, so successive rungs
// share a checkpoint prefix and the last rung shares the grid's cache
// keys.
func (a *adaptive) runAll(ctx context.Context, phase string, cands []Candidate, h uint64) error {
	rctx, rsp := obs.StartSpan(ctx, "adaptive-rung",
		obs.A("phase", phase), obs.A("cycles", strconv.FormatUint(h, 10)),
		obs.A("candidates", strconv.Itoa(len(cands))))
	defer rsp.End()
	err := runner.ForEach(rctx, len(cands), a.opts.Parallelism, func(i int) error {
		rs := a.spec(cands[i].Combo, h)
		// Rung writes are pared down to the one snapshot the next rung
		// forks from (none at the full horizon, where no rung follows).
		res, err := simcache.RunCached(rctx, a.opts.Cache, a.opts.Runner, runner.PriGrid, rs,
			ckpt.RungRunner(a.opts.Ckpt, rs, h == a.opts.TotalCycles))
		if err != nil {
			return err
		}
		cands[i].Result = res
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("search: adaptive search interrupted at %s rung (%d cycles): %w", phase, h, cerr)
	}
	if err != nil {
		return err
	}
	for i := range cands {
		a.deepest[comboKey(cands[i].Combo)] = h
	}
	return nil
}

func (a *adaptive) spec(combo []int, h uint64) spec.RunSpec {
	return spec.RunSpec{
		Config:       a.opts.Config,
		Apps:         a.apps,
		Scheme:       spec.Static(combo, nil),
		TotalCycles:  h,
		WarmupCycles: a.opts.WarmupCycles,
	}
}

// recordPruned appends the pruning decision to the provenance ledger (if
// the cache carries one): the short-horizon run itself was already
// recorded as cached/cold/forked by RunCached; this extra record marks
// that the candidate was dropped after h cycles and will never reach the
// full horizon.
func (a *adaptive) recordPruned(combo []int, h uint64) {
	l := a.opts.Cache.Ledger()
	if l == nil {
		return
	}
	rs := a.spec(combo, h)
	names := make([]string, len(a.apps))
	for i := range a.apps {
		names[i] = a.apps[i].Name
	}
	rec := obs.RunRecord{
		CacheSchema: simcache.SchemaVersion,
		Fingerprint: simcache.Key(rs),
		Scheme:      rs.Scheme.String(),
		Apps:        strings.Join(names, "_"),
		Outcome:     obs.OutcomePruned,
		Cycles:      h,
	}
	if err := l.Append(rec); err != nil {
		simcache.Warnf("search: pruned ledger record: %v", err)
	}
}

// rankValue orders eval values for pruning: NaN ranks below everything
// (Best's strict > scan never selects it).
func rankValue(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(-1)
	}
	return v
}

// slackFloor is the survival threshold a relative slack below v.
func slackFloor(v float64) float64 {
	return v - slack*math.Abs(v)
}

// sortCandidates ranks by value descending with flat grid index as the
// tie-break, matching the exhaustive Best's first-index preference. NaN
// values rank below everything.
func sortCandidates(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		ri, rj := rankValue(cands[i].Value), rankValue(cands[j].Value)
		if ri != rj {
			return ri > rj
		}
		return cands[i].index < cands[j].index
	})
}

// bestScan picks the winner exactly the way Grid.Best does: a strict >
// scan in flat-index order (candidates must already be index-sorted or
// carry distinct indices; ties keep the lowest index).
func bestScan(cands []Candidate) Candidate {
	sorted := append([]Candidate(nil), cands...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].index < sorted[j].index })
	best := sorted[0]
	for _, c := range sorted[1:] {
		if c.Value > best.Value {
			best = c
		}
	}
	return best
}
