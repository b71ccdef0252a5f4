// Command ebmbench is the repository's benchmark. One run builds one
// workload's inputs from a seed, then runs closed-loop passes — the next
// pass starts only when the previous one has finished — for a fixed time,
// checks every pass's results, and prints each metric with its unit and
// sample count. The last line of its output is a JSON summary.
//
//	bash bench/run.sh --workload engine-mem --seed 1 --seconds 25 --trace 0
//
// With --trace 1 the first half of the time runs untraced and the second
// half traced (CPU profile, orchestration spans, engine observers), and
// the run reports the per-layer metrics instead of the end-to-end ones.
// bench/README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/stats"
)

// metricDef is one metric the benchmark reports; BENCHMARK.json declares
// the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are reported by every workload's untraced run.
var endToEnd = []metricDef{
	{"pass_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are reported by every workload's traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "fraction"})
	}
	return append(defs, []metricDef{
		{"gpu.idle_frac", "fraction"},
		{"gpu.fastforward_frac", "fraction"},
		{"gpu.skippable_frac", "fraction"},
		{"gpu.mem_stall_frac", "fraction"},
		{"mem.l1_mshr_stalls_per_kcycle", "1/kcycle"},
		{"mem.l2_mshr_stall_frac", "fraction"},
		{"mem.pool_hit_ratio", "fraction"},
		{"dram.row_hit_rate", "fraction"},
		{"dram.bus_util", "fraction"},
		{"dram.reads_per_kcycle", "1/kcycle"},
		{"sim.windows", "count"},
		{"sim.new_ms", "ms"},
		{"sim.snapshot_ms", "ms"},
		{"sim.restore_ms", "ms"},
		{"sim.snapshot_kb", "KiB"},
		{"sim.alloc_kb_per_kcycle", "KiB/kcycle"},
		{"sim.cycles_per_s", "cycles/s"},
		{"runner.wait_s", "s"},
		{"runner.deduped", "count"},
		{"simcache.get_p50_us", "us"},
		{"simcache.get_p99_us", "us"},
		{"simcache.get_self_s", "s"},
		{"simcache.put_self_s", "s"},
		{"simcache.hit_ratio", "fraction"},
		{"simcache.writes", "count"},
		{"ckpt.best_self_s", "s"},
		{"ckpt.forks", "count"},
		{"ckpt.writes", "count"},
		{"ckpt.written_mb", "MiB"},
		{"search.cycles_frac", "fraction"},
		{"search.pruned", "count"},
		{"search.execute_self_s", "s"},
		{"search.cells_per_s", "cells/s"},
		{"search.adaptive_s", "s"},
		{"profile.suite_s", "s"},
		{"goruntime.alloc_mb_per_pass", "MiB"},
		{"trace_overhead", "ratio"},
	}...)
}()

// A run builds its inputs at least minSetups times and, while the builds
// so far took under setupBudget, up to maxSetups times; setup_s is their
// median and the last build is the one measured. Cheap set-ups repeat
// more, so their median is not at the mercy of one slow build.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 25, "seconds of closed-loop passes to measure")
	trace := fs.Int("trace", 0, "1 runs half the time traced and reports the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "directory for the run's scratch files")
	tracedir := fs.String("tracedir", ".bench_build/trace", "directory for cpu.pprof and spans.json of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "ebmbench: need --workload {%s}, --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := measure(ctx, options{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: *workdir, tracedir: filepath.Join(*tracedir, fmt.Sprintf("%s-seed%d", w.name, *seed)),
		sc: fullScale,
	})
	if err != nil {
		fmt.Fprintf(stderr, "ebmbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "ebmbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ",")
}

type options struct {
	w                 workloadDef
	seed              int64
	seconds           float64
	trace             bool
	workdir, tracedir string
	sc                scale
}

// measure sets the workload up, runs its passes and gathers the metrics.
func measure(ctx context.Context, o options) (*report, error) {
	dir := filepath.Join(o.workdir, fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	workers := runtime.NumCPU()
	pool := runner.New(workers)
	defer pool.Close()
	e := env{seed: o.seed, dir: dir, pool: pool, workers: workers, sc: o.sc}

	host := &reference{threads: 1}
	if o.w.parallel {
		host.threads = workers
	}
	m := &meter{host: host}
	var b bench
	var setups, setupWalls []float64
	var spent time.Duration
	last := m.timeHost()
	for len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget) {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := o.w.build(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		next := m.timeHost()
		setups = append(setups, refSeconds*refRatios([]float64{d.Seconds()}, last, next)[0])
		setupWalls = append(setupWalls, d.Seconds())
		last = next
		b = nb
	}
	defer b.close()

	rep := &report{workload: o.w.name, seed: o.seed, inputs: b.inputs()}
	m.b, m.want = b, b.reference()
	if !o.trace {
		st, err := m.loop(ctx, o.seconds, 3, nil)
		if err != nil {
			return nil, err
		}
		rep.passes = st
		rep.add("pass_s", stats.Median(st.norm), "s", len(st.norm))
		rep.add("setup_s", stats.Median(setups), "s", len(setups))
		rep.add("peak_rss_mb", peakRSSMiB(), "MiB", 1)
		rep.extra = append(rep.extra,
			reported{"pass_wall_s", stats.Median(st.wall), "s", len(st.wall)},
			reported{"setup_wall_s", stats.Median(setupWalls), "s", len(setupWalls)},
			reported{"reference_s", stats.Median(st.hostRuns), "s", len(st.hostRuns)})
		for _, name := range untracedLayers {
			if v, ok := st.layerMedian(name); ok {
				rep.extra = append(rep.extra, reported{name, v, unitOf(name), len(st.wall)})
			}
		}
	} else {
		m.host = nil // the traced run reports no end-to-end time
		plain, err := m.loop(ctx, o.seconds/2, 1, nil)
		if err != nil {
			return nil, err
		}
		p, traced, shares, err := tracedLoop(ctx, m, o.seconds/2, o.tracedir)
		if err != nil {
			return nil, err
		}
		if err := b.probeLayers(ctx, p); err != nil {
			return nil, err
		}
		rep.passes = plain
		untraced := map[string]float64{}
		for _, name := range untracedLayers {
			untraced[name], _ = plain.layerMedian(name)
		}
		overhead := stats.Median(traced.wall) / stats.Median(plain.wall)
		lm := p.layerMetrics(shares, untraced, overhead)
		for _, d := range perLayer {
			rep.add(d.name, lm[d.name], d.unit, len(traced.wall))
		}
	}
	rep.attempted, rep.failed = m.attempted, m.failed
	rep.digest = simcache.HashJSON(m.want)
	return rep, nil
}

// tracedLoop runs passes under a probe and a CPU profile, writes the
// profile and the spans to dir, and folds the profile by layer.
func tracedLoop(ctx context.Context, m *meter, budget float64, dir string) (*probe, passStats, map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, passStats{}, nil, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, passStats{}, nil, err
	}
	p := newProbe()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, passStats{}, nil, err
	}
	st, err := m.loop(ctx, budget, 1, p)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, passStats{}, nil, err
	}
	if err := writeSpans(filepath.Join(dir, "spans.json"), p.tracer); err != nil {
		return nil, passStats{}, nil, err
	}
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profPath).Output()
	if err != nil {
		return nil, passStats{}, nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := foldTop(string(out))
	return p, st, shares, err
}

func writeSpans(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpanTrace(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meter runs passes, checks every pass's results against the results
// wanted (the workload's own, or else the first pass's), and times the
// reference task between passes.
type meter struct {
	b                 bench
	want              []sim.Result
	host              *reference // nil: no reference runs
	attempted, failed int
}

// timeHost runs the reference task once, counts its check, and returns
// its time.
func (m *meter) timeHost() float64 {
	d, ok := m.host.run()
	m.attempted++
	if !ok {
		m.failed++
	}
	return d
}

// passStats are one loop's per-pass measurements.
type passStats struct {
	wall     []float64
	norm     []float64 // wall scaled to the reference task (refSeconds)
	hostRuns []float64 // the reference task's times
	layer    map[string][]float64
}

func (st passStats) layerMedian(name string) (float64, bool) {
	xs, ok := st.layer[name]
	return stats.Median(xs), ok
}

// loop runs passes for about budget seconds: a pass starts only while
// the median pass so far still fits, and at least minPasses passes run.
// Unless m.host is nil, the reference task runs before the first pass and
// after every refEvery seconds of passes, and each pass is scaled by the
// mean of the two reference runs around it.
func (m *meter) loop(ctx context.Context, budget float64, minPasses int, p *probe) (passStats, error) {
	st := passStats{layer: map[string][]float64{}}
	start := time.Now()
	var last, batchTime float64
	var batch []float64 // passes since the last reference run
	if m.host != nil {
		last = m.timeHost()
	}
	closeBatch := func() {
		if m.host == nil || len(batch) == 0 {
			return
		}
		next := m.timeHost()
		for _, r := range refRatios(batch, last, next) {
			st.norm = append(st.norm, refSeconds*r)
		}
		st.hostRuns = append(st.hostRuns, next)
		last, batch, batchTime = next, batch[:0], 0
	}
	for len(st.wall) < minPasses || time.Since(start).Seconds()+stats.Median(st.wall) <= budget {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		cycles0, alloc0 := sim.CyclesSimulated(), totalAlloc()
		p.startPass()
		t0 := time.Now()
		out, err := m.b.pass(ctx, p)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return st, fmt.Errorf("pass %d: %w", len(st.wall)+1, err)
		}
		cycles, alloc := sim.CyclesSimulated()-cycles0, totalAlloc()-alloc0
		st.wall = append(st.wall, wall)
		batch, batchTime = append(batch, wall), batchTime+wall
		if batchTime >= refEvery {
			closeBatch()
		}
		if cycles > 0 {
			st.layer["sim.cycles_per_s"] = append(st.layer["sim.cycles_per_s"], float64(cycles)/wall)
		}
		st.layer["goruntime.alloc_mb_per_pass"] = append(st.layer["goruntime.alloc_mb_per_pass"], float64(alloc)/(1<<20))
		for k, v := range out.layer {
			st.layer[k] = append(st.layer[k], v)
		}
		m.attempted += out.checks
		m.failed += out.failed
		if m.want == nil {
			m.want = out.results
			continue
		}
		m.attempted++
		if !reflect.DeepEqual(out.results, m.want) {
			m.failed++
		}
	}
	closeBatch()
	return st, nil
}

// peakRSSMiB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// percentile is the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}

func unitOf(name string) string {
	for _, d := range append(endToEnd, perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// reported is one printed metric with its sample count.
type reported struct {
	name  string
	value float64
	unit  string
	n     int
}

type report struct {
	workload          string
	seed              int64
	inputs            []string
	passes            passStats
	digest            string
	attempted, failed int
	metrics           []reported // the JSON summary's metrics
	extra             []reported // printed only
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, reported{name, v, unit, n})
}

// write prints the human-readable report and, last, the JSON summary.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d: %d passes\n", r.workload, r.seed, len(r.passes.wall))
	fmt.Fprintf(w, "inputs %s\n", strings.Join(r.inputs, " "))
	fmt.Fprintf(w, "result_digest %s\n", r.digest)
	fmt.Fprintf(w, "error_rate %g (%d of %d checks failed)\n",
		stats.Ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, m := range append(r.metrics, r.extra...) {
		fmt.Fprintf(w, "%-28s %14.6g %-10s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	// The highest percentile with at least ten passes beyond it.
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if n := len(r.passes.norm); float64(n)*(1-q) >= 10 {
			fmt.Fprintf(w, "%-28s %14.6g %-10s n=%d\n", fmt.Sprintf("pass_p%g_s", q*100),
				percentile(r.passes.norm, q), "s", n)
			break
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		sum.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
