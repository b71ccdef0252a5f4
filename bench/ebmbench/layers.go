package main

// Per-layer attribution for the traced run. Everything here measures the
// layers from outside: a CPU profile folded by package, the orchestration
// spans the layers already record on a context tracer, the engine's obs
// registry and journal, and timed calls into the engine's public API.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/obs"
	"ebm/internal/search"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/stats"
)

// spanPasses is how many traced passes carry the span tracer: a replay
// records thousands of spans per pass, and twenty passes give stable self
// times without holding hundreds of megabytes of spans.
const spanPasses = 20

// probe collects the traced passes' layer numbers. A nil probe (untraced
// pass) ignores every call.
type probe struct {
	tracer  *obs.Tracer
	passes  int // traced passes started
	sums    map[string]float64
	samples map[string][]float64
}

func newProbe() *probe {
	return &probe{tracer: obs.NewTracer(), sums: map[string]float64{}, samples: map[string][]float64{}}
}

// startPass marks the start of a traced pass.
func (p *probe) startPass() {
	if p != nil {
		p.passes++
	}
}

// context attaches the span tracer every orchestration layer records on,
// during the first spanPasses traced passes.
func (p *probe) context(ctx context.Context) context.Context {
	if p == nil || p.passes > spanPasses {
		return ctx
	}
	return obs.WithTracer(ctx, p.tracer)
}

// add accumulates a count over the traced passes.
func (p *probe) add(name string, v float64) {
	if p != nil {
		p.sums[name] += v
	}
}

// sample records one observation whose percentiles are reported.
func (p *probe) sample(name string, v float64) {
	if p != nil {
		p.samples[name] = append(p.samples[name], v)
	}
}

// engineProbe observes one engine run through an obs registry and
// journal, and the allocations of its cycle loop.
type engineProbe struct {
	p      *probe
	reg    *obs.Registry
	j      *obs.Journal
	alloc0 uint64
}

// engineRun attaches an observer to the run's options.
func (p *probe) engineRun(o *sim.Options) *engineProbe {
	if p == nil {
		return nil
	}
	ep := &engineProbe{p: p, reg: obs.NewRegistry(), j: obs.NewJournal()}
	o.Obs = &obs.Observer{Metrics: ep.reg, Journal: ep.j}
	return ep
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// begin marks the start of the cycle loop.
func (ep *engineProbe) begin() {
	if ep != nil {
		ep.alloc0 = totalAlloc()
	}
}

// done reads the finished run's counters.
func (ep *engineProbe) done(rs spec.RunSpec, s *sim.Simulator) error {
	if ep == nil {
		return nil
	}
	p := ep.p
	cycles := float64(s.Cycle())
	p.add("alloc_bytes", float64(totalAlloc()-ep.alloc0))
	p.add("cycles", cycles)

	var text bytes.Buffer
	if err := ep.reg.WriteText(&text); err != nil {
		return err
	}
	m := parseProm(text.String())
	p.add("core_cycles", float64(rs.Config.NumCores)*cycles)
	p.add("idle", m["ebm_core_idle_cycles_total"])
	p.add("fastforward", m["ebm_core_fastforward_cycles_total"])
	p.add("mem_stall", m["ebm_core_mem_stall_cycles_total"])
	p.add("l1_mshr_stall", m[`ebm_mshr_stall_cycles_total{level="l1"}`])
	p.add("l2_mshr_stall", m[`ebm_mshr_stall_cycles_total{level="l2"}`])
	p.add("part_mem_cycles", float64(rs.Config.NumMemPartitions)*m["ebm_mem_cycle"])
	p.add("pool_gets", m["ebm_request_pool_gets_total"])
	p.add("pool_heap", m["ebm_request_pool_heap_allocs_total"])
	p.add("row_hits", m["ebm_dram_row_hits_total"])
	p.add("row_misses", m["ebm_dram_row_misses_total"])
	p.add("dram_reads", m["ebm_dram_reads_total"])
	p.add("sim.windows", m["ebm_windows_total"])
	for _, e := range ep.j.Events() {
		if e.Kind == obs.EvWindow {
			p.add("bw_sum", e.BW)
			p.add("bw_windows", 1)
		}
	}
	return nil
}

// probeHostCalls times the engine's host calls on each spec, outside the
// profiled passes: building a machine and, after a short run (warmup plus
// one window), snapshotting it and restoring the snapshot into a fresh
// machine.
func probeHostCalls(ctx context.Context, p *probe, specs []spec.RunSpec) error {
	for _, rs := range specs {
		o, err := sim.FromSpec(shortRun(rs))
		if err != nil {
			return err
		}
		t0 := time.Now()
		s, err := sim.New(o)
		if err != nil {
			return err
		}
		p.sample("sim.new_ms", msSince(t0))
		if _, err := s.RunContext(ctx); err != nil {
			return err
		}
		t0 = time.Now()
		snap, err := s.SnapshotBytes()
		if err != nil {
			return err
		}
		p.sample("sim.snapshot_ms", msSince(t0))
		p.sample("sim.snapshot_kb", float64(len(snap))/1024)
		fresh, err := sim.New(o)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := fresh.RestoreBytes(snap); err != nil {
			return err
		}
		p.sample("sim.restore_ms", msSince(t0))
		if fresh.Cycle() != s.Cycle() {
			return fmt.Errorf("restore resumed at cycle %d, snapshot taken at %d", fresh.Cycle(), s.Cycle())
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// parseProm sums a Prometheus text exposition: each family under its
// bare name and each series under its full name with labels.
func parseProm(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		m[series] += v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			m[series[:i]] += v
		}
	}
	return m
}

// sweepStores records one sweep workload's store traffic and search
// outcome.
func (p *probe) sweepStores(grid, adaptive *simcache.Cache, st *ckpt.Store, res search.AdaptiveResult, exhaustiveCycles int) {
	if p == nil {
		return
	}
	for _, c := range []*simcache.Cache{grid, adaptive} {
		p.cacheStats(c.Stats())
	}
	cs := st.Stats()
	p.add("ckpt.forks", float64(cs.Forks))
	p.add("ckpt.writes", float64(cs.Writes))
	p.add("ckpt.written_bytes", float64(cs.BytesWritten))
	p.add("search.cycles_submitted", float64(res.CyclesSubmitted))
	p.add("search.exhaustive_cycles", float64(exhaustiveCycles))
	p.add("search.pruned", float64(len(res.Pruned)))
}

// cacheStats records one result cache's traffic.
func (p *probe) cacheStats(s simcache.Stats) {
	p.add("simcache.hits", float64(s.Hits))
	p.add("simcache.misses", float64(s.Misses))
	p.add("simcache.writes", float64(s.Writes))
}

// cpuLayers are the layers CPU time is folded into: one per simulator
// and orchestration package, plus the Go runtime, serialization
// (encoding/*, reflect, strconv), system calls and file I/O, and the rest.
var cpuLayers = []string{
	"gpu", "cache", "mem", "icnt", "dram", "kernel", "sim", "tlp", "core", "stats", "spec",
	"runner", "simcache", "ckpt", "search", "profile", "experiments", "obs",
	"goruntime", "encoding", "syscall", "other",
}

// foldRules map function-name prefixes outside the module to layers;
// the first match wins, so the runtime's raw syscall stubs count as
// system calls rather than runtime.
var foldRules = []struct{ prefix, layer string }{
	{"internal/runtime/syscall.", "syscall"},
	{"syscall.", "syscall"},
	{"internal/syscall/", "syscall"},
	{"internal/poll.", "syscall"},
	{"os.", "syscall"},
	{"runtime.", "goruntime"},
	{"runtime/", "goruntime"},
	{"internal/runtime/", "goruntime"},
	{"encoding/", "encoding"},
	{"reflect.", "encoding"},
	{"strconv.", "encoding"},
}

// layerOf names the layer a profiled function's flat time is charged to.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "ebm/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, r := range foldRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer
		}
	}
	return "other"
}

// foldTop folds `go tool pprof -top` output into each layer's share of
// the profile's total sample time. Every layer is present, with 0 for
// those that never ran.
func foldTop(out string) (map[string]float64, error) {
	var total float64
	flat := map[string]float64{}
	rows := false
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "Total samples = "); i >= 0 {
			f := strings.Fields(line[i+len("Total samples = "):])
			if len(f) == 0 {
				return nil, fmt.Errorf("pprof: malformed header %q", line)
			}
			var err error
			if total, err = parseSeconds(f[0]); err != nil {
				return nil, err
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		v, err := parseSeconds(f[0])
		if err != nil {
			return nil, err
		}
		flat[layerOf(strings.Join(f[5:], " "))] += v
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof: profile has no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = flat[l] / total
	}
	return shares, nil
}

// pprofUnits are the time units pprof prints, longest suffix first.
var pprofUnits = []struct {
	suffix string
	sec    float64
}{
	{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1},
}

func parseSeconds(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range pprofUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof: bad time %q", s)
			}
			return v * u.sec, nil
		}
	}
	return 0, fmt.Errorf("pprof: bad time %q", s)
}

// adoptPooled re-parents each run's execute and cache.put spans under
// the pool.do span of the same run that contains them. The pool runs a
// task under its submitter's context, so the tracer records them as
// siblings of pool.do; re-parented, pool.do's self time is the time the
// run waited for a worker or for a deduplicated twin.
func adoptPooled(spans []obs.SpanData) []obs.SpanData {
	pools := map[uint64][]obs.SpanData{}
	for _, s := range spans {
		if s.Name == "pool.do" {
			pools[s.Parent] = append(pools[s.Parent], s)
		}
	}
	out := append([]obs.SpanData(nil), spans...)
	for i, s := range out {
		if s.Name != "execute" && s.Name != "cache.put" {
			continue
		}
		for _, pd := range pools[s.Parent] {
			if pd.Start <= s.Start && s.End <= pd.End {
				out[i].Parent = pd.ID
				break
			}
		}
	}
	return out
}

// selfTimes sums each span name's self time: a span's duration minus the
// union of its children's intervals clipped to it, so children that run
// in parallel or overlap are subtracted once.
func selfTimes(spans []obs.SpanData) map[string]time.Duration {
	kids := map[uint64][]obs.SpanData{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent obs.SpanData, kids []obs.SpanData) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end time.Duration
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// layerMetrics assembles every per-layer metric from the traced passes
// (counts, spans, profile shares) and the untraced passes' medians.
// Layers a workload never reaches read 0.
func (p *probe) layerMetrics(shares, untraced map[string]float64, overhead float64) map[string]float64 {
	n := float64(p.passes)
	ns := float64(min(p.passes, spanPasses)) // passes that carried the tracer
	s := p.sums
	m := map[string]float64{}
	for l, v := range shares {
		m[l+".cpu_share"] = v
	}
	idle := stats.Ratio(s["idle"], s["core_cycles"])
	ff := stats.Ratio(s["fastforward"], s["core_cycles"])
	m["gpu.idle_frac"] = idle
	m["gpu.fastforward_frac"] = ff
	m["gpu.skippable_frac"] = idle - ff
	m["gpu.mem_stall_frac"] = stats.Ratio(s["mem_stall"], s["core_cycles"])
	m["mem.l1_mshr_stalls_per_kcycle"] = 1000 * stats.Ratio(s["l1_mshr_stall"], s["core_cycles"])
	m["mem.l2_mshr_stall_frac"] = stats.Ratio(s["l2_mshr_stall"], s["part_mem_cycles"])
	m["mem.pool_hit_ratio"] = stats.Ratio(s["pool_gets"]-s["pool_heap"], s["pool_gets"])
	m["dram.row_hit_rate"] = stats.Ratio(s["row_hits"], s["row_hits"]+s["row_misses"])
	m["dram.bus_util"] = stats.Ratio(s["bw_sum"], s["bw_windows"])
	m["dram.reads_per_kcycle"] = 1000 * stats.Ratio(s["dram_reads"], s["cycles"])
	m["sim.windows"] = s["sim.windows"] / n

	m["sim.new_ms"] = stats.Median(p.samples["sim.new_ms"])
	m["sim.snapshot_ms"] = stats.Median(p.samples["sim.snapshot_ms"])
	m["sim.restore_ms"] = stats.Median(p.samples["sim.restore_ms"])
	m["sim.snapshot_kb"] = stats.Median(p.samples["sim.snapshot_kb"])
	m["sim.alloc_kb_per_kcycle"] = stats.Ratio(s["alloc_bytes"]/1024, s["cycles"]/1000)

	spans := adoptPooled(p.tracer.Spans())
	self := selfTimes(spans)
	m["runner.wait_s"] = self["pool.do"].Seconds() / ns
	m["runner.deduped"] = s["runner.deduped"] / n
	m["simcache.get_p50_us"] = percentile(p.samples["simcache.get_us"], 0.50)
	m["simcache.get_p99_us"] = percentile(p.samples["simcache.get_us"], 0.99)
	m["simcache.get_self_s"] = self["cache.get"].Seconds() / ns
	m["simcache.put_self_s"] = self["cache.put"].Seconds() / ns
	m["simcache.hit_ratio"] = stats.Ratio(s["simcache.hits"], s["simcache.hits"]+s["simcache.misses"])
	m["simcache.writes"] = s["simcache.writes"] / n
	m["ckpt.best_self_s"] = self["ckpt.best"].Seconds() / ns
	m["ckpt.forks"] = s["ckpt.forks"] / n
	m["ckpt.writes"] = s["ckpt.writes"] / n
	m["ckpt.written_mb"] = s["ckpt.written_bytes"] / (1 << 20) / n
	m["search.cycles_frac"] = stats.Ratio(s["search.cycles_submitted"], s["search.exhaustive_cycles"])
	m["search.pruned"] = s["search.pruned"] / n
	m["search.execute_self_s"] = self["execute"].Seconds() / ns
	var suite time.Duration
	for _, sp := range spans {
		if sp.Name == "profile-suite" {
			suite += sp.Dur()
		}
	}
	m["profile.suite_s"] = suite.Seconds() / ns

	for _, name := range untracedLayers {
		m[name] = untraced[name]
	}
	m["trace_overhead"] = overhead
	return m
}

// untracedLayers are per-layer numbers taken from the trace run's
// untraced half, since tracing would perturb them.
var untracedLayers = []string{
	"sim.cycles_per_s", "search.cells_per_s", "search.adaptive_s", "goruntime.alloc_mb_per_pass",
}
