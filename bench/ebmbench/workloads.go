package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/experiments"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/profile"
	"ebm/internal/runner"
	"ebm/internal/search"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/stats"
	"ebm/internal/workload"
)

// scale holds the run lengths of every workload. Tests shrink it; the
// benchmark always runs fullScale.
type scale struct {
	engineCycles, engineWarmup, engineWindow uint64
	sweepCycles, sweepWarmup                 uint64
	replayGrid, replayEval, replayWarmup     uint64
	replayWindow                             uint64
}

var fullScale = scale{
	engineCycles: 100_000, engineWarmup: 10_000, engineWindow: 2_500,
	sweepCycles: 40_000, sweepWarmup: 2_000,
	replayGrid: 8_000, replayEval: 16_000, replayWarmup: 1_000, replayWindow: 1_000,
}

// env is what every workload is built from: the seed, a private scratch
// directory, the execution pool and the run lengths.
type env struct {
	seed    int64
	dir     string
	pool    *runner.Runner
	workers int
	sc      scale
}

// A bench is one workload instantiated for a seed. Constructing it is the
// set-up; pass runs one closed-loop unit of work.
type bench interface {
	// pass runs one pass; p is nil on untraced passes.
	pass(ctx context.Context, p *probe) (passOut, error)
	// reference returns the results every pass must reproduce, or nil
	// when the first pass's results are the reference.
	reference() []sim.Result
	// probeLayers takes the layer measurements that stay outside the
	// profiled passes.
	probeLayers(ctx context.Context, p *probe) error
	// inputs names the seeded inputs (for the report and the draw tests).
	inputs() []string
	close()
}

// passOut is what one pass produced.
type passOut struct {
	results []sim.Result
	// checks and failed count the pass's own correctness checks.
	checks, failed int
	// layer holds per-pass numbers whose median over untraced passes is
	// reported as a per-layer metric.
	layer map[string]float64
}

func (o *passOut) check(ok bool) {
	o.checks++
	if !ok {
		o.failed++
	}
}

// workloadDef declares one workload; the names and reasons are mirrored
// in BENCHMARK.json. A parallel workload keeps every CPU busy, so its
// reference task runs on every CPU too.
type workloadDef struct {
	name, why string
	build     func(ctx context.Context, e env) (bench, error)
	parallel  bool
}

var workloads = []workloadDef{
	{"engine-mem", "memory-bound co-schedules saturate DRAM: engine time sits in cache, dram and MSHR code, where idle cycles could be skipped",
		func(ctx context.Context, e env) (bench, error) { return newEngine(ctx, e, memPairs) }, false},
	{"engine-compute", "compute-bound co-schedules keep cores busy: engine time sits in the core tick, so skipping idle cycles should not help",
		func(ctx context.Context, e env) (bench, error) { return newEngine(ctx, e, computePairs) }, false},
	{"sweep-cold", "exhaustive grid plus adaptive search into empty stores: the only workload that writes results and checkpoints",
		newSweep, true},
	{"replay-warm", "paper-figure runs replayed from a warm result cache: the read path with zero engine cycles",
		newReplay, false},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// The engine workloads' co-schedules. Each class is fixed so that every
// seed measures the same amount of work; the seed varies the applications'
// address streams (seedApps). Drawing the pairs themselves from the class
// would move a pass's host time by 20% between seeds, far above the noise
// the end-to-end bounds allow.
var (
	// memPairs are streaming "bully" applications (alone-EB group G4).
	memPairs = [][2]string{{"BLK", "TRD"}, {"GUPS", "SCAN"}, {"FWT", "RED"}}
	// computePairs are compute-bound, cache-friendly applications.
	computePairs = [][2]string{{"LIB", "LUD"}, {"NW", "SAD"}, {"JPEG", "CONS"}}
	// sweepPairs are swept exhaustively and adaptively; for both, the
	// adaptive search's engine-cycle share barely moves across seeds.
	sweepPairs = [][2]string{{"BLK", "BFS"}, {"JPEG", "LIB"}}
)

// replayDraw is how many workloads replay-warm draws from the paper's ten
// representative co-schedules.
const replayDraw = 4

// seedApps gives every application of every workload a kernel seed drawn
// from the benchmark seed, so each seed simulates different address
// streams with the same statistics.
func seedApps(seed int64, ws []workload.Workload) []workload.Workload {
	rng := stats.NewRNG(uint64(seed))
	out := make([]workload.Workload, len(ws))
	for i, w := range ws {
		w.Apps = append([]kernel.Params(nil), w.Apps...)
		for a := range w.Apps {
			w.Apps[a].Seed = rng.Uint64()
		}
		out[i] = w
	}
	return out
}

func makePairs(pairs [][2]string) []workload.Workload {
	ws := make([]workload.Workload, len(pairs))
	for i, p := range pairs {
		ws[i] = workload.MustMake(p[0], p[1])
	}
	return ws
}

// drawReplay picks replayDraw distinct representative workloads.
func drawReplay(seed int64) []workload.Workload {
	pool := workload.Representative()
	rng := stats.NewRNG(uint64(seed) ^ 0x5EED)
	for i := len(pool) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return seedApps(seed, pool[:replayDraw])
}

func inputNames(ws []workload.Workload) []string {
	var out []string
	for _, w := range ws {
		for _, a := range w.Apps {
			out = append(out, fmt.Sprintf("%s#%016x", a.Name, a.Seed))
		}
	}
	return out
}

// reducedConfig is the 4-core/4-partition machine the orchestration
// workloads run on, so a pass simulates many runs in a few seconds.
func reducedConfig() config.GPU {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	return cfg
}

// --- engine-mem, engine-compute ---

// engine runs every co-schedule under ++maxTLP and under a throttled
// static combination, one simulation after another on one goroutine, on
// the full Table I machine. Static schemes keep the host work independent
// of the seed: a dynamic manager's TLP trajectory, and with it the host
// time, changes with the address streams.
type engine struct {
	ws    []workload.Workload
	specs []spec.RunSpec
}

func newEngine(ctx context.Context, e env, pairs [][2]string) (bench, error) {
	b := &engine{ws: seedApps(e.seed, makePairs(pairs))}
	for _, w := range b.ws {
		for _, sch := range []spec.SchemeSpec{spec.MaxTLP(), spec.Static([]int{4, 4}, nil)} {
			b.specs = append(b.specs, spec.RunSpec{
				Config:             config.Default(),
				Apps:               w.Apps,
				Scheme:             sch,
				TotalCycles:        e.sc.engineCycles,
				WarmupCycles:       e.sc.engineWarmup,
				WindowCycles:       e.sc.engineWindow,
				DesignatedSampling: true,
			})
		}
	}
	for _, rs := range b.specs {
		if err := warm(ctx, rs); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// warm runs a spec through its warmup and one sampling window: it
// validates the spec and lets the allocator grow the heap before any pass
// is timed.
func warm(ctx context.Context, rs spec.RunSpec) error {
	_, err := sim.Execute(ctx, shortRun(rs))
	return err
}

// shortRun cuts a spec to its warmup plus one sampling window.
func shortRun(rs spec.RunSpec) spec.RunSpec {
	window := rs.WindowCycles
	if window == 0 {
		window = sim.DefaultWindowCycles
	}
	rs.TotalCycles = rs.WarmupCycles + window
	return rs
}

func (b *engine) pass(ctx context.Context, p *probe) (passOut, error) {
	var out passOut
	for _, rs := range b.specs {
		o, err := sim.FromSpec(rs)
		if err != nil {
			return out, err
		}
		run := p.engineRun(&o)
		s, err := sim.New(o)
		if err != nil {
			return out, err
		}
		run.begin()
		res, err := s.RunContext(ctx)
		if err != nil {
			return out, err
		}
		if err := run.done(rs, s); err != nil {
			return out, err
		}
		out.results = append(out.results, res)
	}
	return out, nil
}

func (b *engine) probeLayers(ctx context.Context, p *probe) error {
	return probeHostCalls(ctx, p, b.specs)
}

func (b *engine) reference() []sim.Result { return nil }
func (b *engine) inputs() []string        { return inputNames(b.ws) }
func (b *engine) close()                  {}

// --- sweep-cold ---

// sweep builds each workload's exhaustive 64-cell grid into an empty
// result cache, then runs the adaptive search into an empty result cache
// and checkpoint store, with NumCPU workers on the shared pool.
type sweep struct {
	e        env
	ws       []workload.Workload
	maxCells []spec.RunSpec // each workload's ++maxTLP cell
	n        int            // pass counter, for fresh directory names
}

func newSweep(ctx context.Context, e env) (bench, error) {
	b := &sweep{e: e, ws: seedApps(e.seed, makePairs(sweepPairs))}
	for _, w := range b.ws {
		rs := spec.RunSpec{
			Config:       reducedConfig(),
			Apps:         w.Apps,
			Scheme:       spec.MaxTLP(),
			TotalCycles:  e.sc.sweepCycles,
			WarmupCycles: e.sc.sweepWarmup,
		}
		if err := warm(ctx, rs); err != nil {
			return nil, err
		}
		b.maxCells = append(b.maxCells, rs)
	}
	return b, nil
}

func (b *sweep) pass(ctx context.Context, p *probe) (passOut, error) {
	out := passOut{layer: map[string]float64{}}
	b.n++
	dir := filepath.Join(b.e.dir, fmt.Sprintf("sweep-%d", b.n))
	defer os.RemoveAll(dir)
	ctx = p.context(ctx)
	eval := search.EBEval(metrics.ObjWS, nil)
	var gridTime, searchTime time.Duration
	cells := 0
	dedup0 := b.e.pool.Stats().Deduped
	for i, w := range b.ws {
		wdir := filepath.Join(dir, fmt.Sprint(i))
		gc, err := simcache.Open(filepath.Join(wdir, "grid"))
		if err != nil {
			return out, err
		}
		t0 := time.Now()
		g, err := search.BuildGrid(ctx, w.Apps, search.GridOptions{
			Config:       reducedConfig(),
			TotalCycles:  b.e.sc.sweepCycles,
			WarmupCycles: b.e.sc.sweepWarmup,
			Parallelism:  b.e.workers,
			Runner:       b.e.pool,
			Cache:        gc,
		})
		gridTime += time.Since(t0)
		if err != nil {
			return out, err
		}
		cells += len(g.Results)
		best, _ := g.Best(eval)

		ac, err := simcache.Open(filepath.Join(wdir, "adaptive"))
		if err != nil {
			return out, err
		}
		st, err := ckpt.Open(filepath.Join(wdir, "ckpt"))
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		res, err := search.Adaptive(ctx, w.Apps, eval, search.AdaptiveOptions{
			Config:       reducedConfig(),
			TotalCycles:  b.e.sc.sweepCycles,
			WarmupCycles: b.e.sc.sweepWarmup,
			Rungs:        4,
			Parallelism:  b.e.workers,
			Runner:       b.e.pool,
			Cache:        ac,
			Ckpt:         st,
		})
		searchTime += time.Since(t1)
		if err != nil {
			return out, err
		}
		out.check(reflect.DeepEqual(res.Combo, best))
		for _, f := range res.Finals {
			cell, err := g.At(f.Combo)
			out.check(err == nil && reflect.DeepEqual(cell, f.Result))
			out.results = append(out.results, f.Result)
		}
		out.results = append(out.results, g.Results...)
		p.sweepStores(gc, ac, st, res, len(g.Results)*int(b.e.sc.sweepCycles))
	}
	p.add("runner.deduped", float64(b.e.pool.Stats().Deduped-dedup0))
	out.layer["search.cells_per_s"] = float64(cells) / gridTime.Seconds()
	out.layer["search.adaptive_s"] = searchTime.Seconds()
	return out, nil
}

func (b *sweep) probeLayers(ctx context.Context, p *probe) error {
	return probeHostCalls(ctx, p, b.maxCells)
}

func (b *sweep) reference() []sim.Result { return nil }
func (b *sweep) inputs() []string        { return inputNames(b.ws) }
func (b *sweep) close()                  {}

// --- replay-warm ---

// replay prewarms a result cache with the 26-application profile suite
// and, for each drawn workload, its grid and every figure-scheme run.
// Each pass then opens a fresh experiments.Env on that cache and replays
// the same calls. It stops short of Env.EvalWorkload, whose unlocked
// staticResults map races when several goroutines fill it (see README).
type replay struct {
	e     env
	ws    []workload.Workload
	opts  experiments.Options
	cold  []sim.Result
	suite *profile.Suite
	keys  []string // every prewarmed cache key
}

func newReplay(ctx context.Context, e env) (bench, error) {
	dir, err := os.MkdirTemp(e.dir, "replay-")
	if err != nil {
		return nil, err
	}
	b := &replay{e: e, ws: drawReplay(e.seed)}
	b.opts = experiments.Options{
		Config:       reducedConfig(),
		GridCycles:   e.sc.replayGrid,
		GridWarmup:   e.sc.replayWarmup,
		EvalCycles:   e.sc.replayEval,
		EvalWarmup:   e.sc.replayWarmup,
		WindowCycles: e.sc.replayWindow,
		Workloads:    b.ws,
		Parallelism:  e.workers,
		SimCache:     dir,
		Runner:       e.pool,
	}
	xe, err := experiments.NewEnv(ctx, b.opts)
	if err == nil {
		b.suite = xe.Suite
		b.cold, err = replayCalls(xe, b.ws)
	}
	var ents []os.DirEntry
	if err == nil {
		ents, err = os.ReadDir(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for _, de := range ents {
		if k, ok := strings.CutSuffix(de.Name(), ".json"); ok {
			b.keys = append(b.keys, k)
		}
	}
	return b, nil
}

// replayCalls makes the calls a figure evaluation makes per workload: the
// exhaustive grid, the two static baselines and every online scheme.
func replayCalls(e *experiments.Env, ws []workload.Workload) ([]sim.Result, error) {
	var out []sim.Result
	for _, w := range ws {
		g, err := e.Grid(w)
		if err != nil {
			return nil, err
		}
		out = append(out, g.Results...)
		best, err := e.Suite.BestTLPs(w.Names())
		if err != nil {
			return nil, err
		}
		for _, c := range [][]int{best, {config.MaxTLP, config.MaxTLP}} {
			r, err := e.RunStatic(w, c)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		schemes := experiments.FigureSchemes(best)
		names := make([]string, 0, len(schemes))
		for n := range schemes {
			if n != experiments.SchBestTLP && n != experiments.SchMaxTLP {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			r, err := e.RunScheme(w, schemes[n])
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func (b *replay) pass(ctx context.Context, p *probe) (passOut, error) {
	var out passOut
	ctx = p.context(ctx)
	dedup0 := b.e.pool.Stats().Deduped
	work0 := sim.CyclesSimulated()
	xe, err := experiments.NewEnv(ctx, b.opts)
	if err != nil {
		return out, err
	}
	res, err := replayCalls(xe, b.ws)
	if err != nil {
		return out, err
	}
	out.results = res
	out.check(sim.CyclesSimulated() == work0)
	out.check(reflect.DeepEqual(xe.Suite, b.suite))
	p.add("runner.deduped", float64(b.e.pool.Stats().Deduped-dedup0))
	p.cacheStats(xe.Cache().Stats())
	return out, nil
}

// probeLayers times Cache.Get on every prewarmed key, three rounds, so
// the percentiles rest on more than a thousand reads.
func (b *replay) probeLayers(_ context.Context, p *probe) error {
	c, err := simcache.Open(b.opts.SimCache)
	if err != nil {
		return err
	}
	for round := 0; round < 3; round++ {
		for _, k := range b.keys {
			t0 := time.Now()
			_, ok := c.Get(k)
			p.sample("simcache.get_us", float64(time.Since(t0).Nanoseconds())/1e3)
			if !ok {
				return fmt.Errorf("replay: prewarmed key %s missing", k)
			}
		}
	}
	return nil
}

func (b *replay) reference() []sim.Result { return b.cold }
func (b *replay) inputs() []string        { return inputNames(b.ws) }
func (b *replay) close()                  { os.RemoveAll(b.opts.SimCache) }
