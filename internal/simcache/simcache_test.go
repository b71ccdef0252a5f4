package simcache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/spec"
)

func testSpec() spec.RunSpec {
	app, _ := kernel.ByName("BLK")
	return spec.RunSpec{
		Config:       config.Default(),
		Apps:         []kernel.Params{app},
		Scheme:       spec.Static([]int{4}, nil),
		TotalCycles:  60_000,
		WarmupCycles: 10_000,
	}
}

// awkwardResult exercises float values whose decimal rendering must
// round-trip to the exact same bits.
func awkwardResult() sim.Result {
	return sim.Result{
		Cycles:  1 << 62, // above 2^53: must not pass through float64
		TotalBW: 0.1 + 0.2,
		Windows: 123,
		Apps: []sim.AppResult{
			{
				Name: "BLK", Insts: 987654321987654321, IPC: 1.0 / 3.0,
				L1MR: math.Nextafter(0.5, 1), L2MR: 1e-17, CMR: 0.30000000000000004,
				BW: 2.0 / 7.0, EB: math.SmallestNonzeroFloat64,
				RowHitRate: 0.9999999999999999, AvgLatency: 12345.6789,
				MemStallFrac: 0.1, IssueUtil: 0.25, AvgTLP: 23.999999999999996,
				FinalTLP: 24, Kernels: 42,
			},
		},
	}
}

func TestKeyStabilityAndInvalidation(t *testing.T) {
	base := testSpec()
	k := Key(base)
	if k != Key(testSpec()) {
		t.Fatal("key not stable for identical specs")
	}
	if len(k) != 16 {
		t.Fatalf("key %q not 16 hex digits", k)
	}

	mutations := map[string]func(*spec.RunSpec){
		"config":        func(s *spec.RunSpec) { s.Config.L2MSHRs = 999 },
		"total cycles":  func(s *spec.RunSpec) { s.TotalCycles++ },
		"warmup cycles": func(s *spec.RunSpec) { s.WarmupCycles++ },
		"scheme combo":  func(s *spec.RunSpec) { s.Scheme = spec.Static([]int{8}, nil) },
		"scheme kind":   func(s *spec.RunSpec) { s.Scheme = spec.DynCTA() },
		"scheme knob": func(s *spec.RunSpec) {
			s.Scheme = spec.CCWS()
			s.Scheme.CCWS.HighVTA = 0.2
		},
		"apps":        func(s *spec.RunSpec) { s.Apps[0].Rm += 0.01 },
		"window":      func(s *spec.RunSpec) { s.WindowCycles = 777 },
		"sampling":    func(s *spec.RunSpec) { s.DesignatedSampling = true },
		"cores":       func(s *spec.RunSpec) { s.CoresPerApp = []int{30} },
		"victim tags": func(s *spec.RunSpec) { s.VictimTags = 1024 },
		"l2 ways":     func(s *spec.RunSpec) { s.L2WayPartition = [][]bool{{true}} },
	}
	for name, mutate := range mutations {
		s := testSpec()
		mutate(&s)
		if Key(s) == k {
			t.Errorf("key insensitive to %s change", name)
		}
	}

	// A schema bump must change every key even for identical specs.
	if HashRun(testSpec().Canonical(), SchemaVersion+1) == k {
		t.Fatal("key insensitive to schema version")
	}
}

// TestKeyGolden pins the cache keys of representative runs. A failure
// here means existing on-disk caches silently invalidated — if the key
// change is intentional (engine behaviour, canonical form, or entry
// layout changed), bump SchemaVersion in the same commit and repin.
func TestKeyGolden(t *testing.T) {
	app, _ := kernel.ByName("BLK")
	base := func(sch spec.SchemeSpec) spec.RunSpec {
		return spec.RunSpec{
			Config:       config.Default(),
			Apps:         []kernel.Params{app},
			Scheme:       sch,
			TotalCycles:  60_000,
			WarmupCycles: 10_000,
		}
	}
	ccwsKnobbed := spec.CCWS()
	ccwsKnobbed.CCWS.HighVTA = 0.2
	golden := []struct {
		name string
		rs   spec.RunSpec
		key  string
	}{
		{"static", base(spec.Static([]int{4}, nil)), "6bd66cab58d212f2"},
		{"maxtlp", base(spec.MaxTLP()), "c83bd241a273f8ae"},
		{"dyncta", base(spec.DynCTA()), "9d00eaccb1fa0593"},
		{"ccws knobbed", base(ccwsKnobbed), "af32802a5cee8bc8"},
		{"pbs-ws", base(spec.PBS(0)), "1c30872975859e7d"},
	}
	for _, g := range golden {
		if k := Key(g.rs); k != g.key {
			t.Errorf("%s: key %s, want %s (did the canonical form or schema change without a SchemaVersion bump?)", g.name, k, g.key)
		}
	}
}

// TestKeyCanonicalEquivalence pins which distinct requests are supposed
// to share a cache entry: aliases, labels, and default-stated knobs must
// not fragment the cache.
func TestKeyCanonicalEquivalence(t *testing.T) {
	base := testSpec()
	k := Key(base)

	// A display label is not part of the run's identity.
	labeled := base
	labeled.Scheme = spec.Labeled("alone@4", []int{4}, nil)
	if Key(labeled) != k {
		t.Error("label changed the key")
	}

	// A resolved bestTLP executes as the static combination it names.
	best := base
	best.Scheme = spec.BestTLP([]int{4})
	if Key(best) != k {
		t.Error("resolved besttlp keyed differently from its static combination")
	}

	// maxTLP is the static all-MaxTLP combination.
	mx := base
	mx.Scheme = spec.MaxTLP()
	st := base
	st.Scheme = spec.Static([]int{config.MaxTLP}, nil)
	if Key(mx) != Key(st) {
		t.Error("maxtlp keyed differently from static[MaxTLP]")
	}

	// Knobs stated at their defaults are the defaults.
	implicit := base
	implicit.Scheme = spec.CCWS()
	explicit := base
	explicit.Scheme = spec.CCWS()
	explicit.Scheme.CCWS.HighVTA = 0.15 // the default, stated
	if Key(implicit) != Key(explicit) {
		t.Error("default-valued knob changed the key")
	}
}

// TestHashJSONMatchesMarshal holds the streamed hash to its definition:
// FNV-1a, from the package's offset basis, over json.Marshal's bytes.
// The values cover the run keys TestKeyGolden pins and text both
// encoders must escape alike (HTML characters, non-ASCII, invalid UTF-8,
// the JavaScript line separators).
func TestHashJSONMatchesMarshal(t *testing.T) {
	app, _ := kernel.ByName("BLK")
	ccwsKnobbed := spec.CCWS()
	ccwsKnobbed.CCWS.HighVTA = 0.2
	values := []any{
		awkwardResult(),
		map[string]string{"html": `<a href="x">&amp;</a>`, "text": "naïve — 日本語", "sep": "\u2028\u2029"},
		struct{ A, B string }{"<>&", "\xff"},
		0, "", []int(nil),
	}
	for _, sch := range []spec.SchemeSpec{spec.Static([]int{4}, nil), spec.MaxTLP(), spec.DynCTA(), ccwsKnobbed, spec.PBS(0)} {
		rs := spec.RunSpec{
			Config:       config.Default(),
			Apps:         []kernel.Params{app},
			Scheme:       sch,
			TotalCycles:  60_000,
			WarmupCycles: 10_000,
		}
		values = append(values, rs.Canonical())
	}
	for i, v := range values {
		h := uint64(1469598103934665603)
		for _, c := range mustJSON(v) {
			h ^= uint64(c)
			h *= 1099511628211
		}
		if got, want := HashJSON(v), fmt.Sprintf("%016x", h); got != want {
			t.Errorf("value %d: HashJSON %s, FNV-1a over json.Marshal %s", i, got, want)
		}
	}
}

func TestPutGetBitIdentical(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orig := awkwardResult()
	if err := c.Put("k1", orig); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k1")
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip changed the result:\n%+v\n%+v", orig, got)
	}
	// Belt and braces: the floats must agree at the bit level, not just
	// under ==.
	pairs := [][2]float64{
		{orig.TotalBW, got.TotalBW},
		{orig.Apps[0].IPC, got.Apps[0].IPC},
		{orig.Apps[0].L1MR, got.Apps[0].L1MR},
		{orig.Apps[0].EB, got.Apps[0].EB},
		{orig.Apps[0].AvgTLP, got.Apps[0].AvgTLP},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Errorf("pair %d: %x != %x", i, math.Float64bits(p[0]), math.Float64bits(p[1]))
		}
	}
	if s := c.Stats(); s.Hits != 1 || s.Writes != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestConcurrentGetsKeepTheirOwnEntries reads entries of different
// sizes from many goroutines at once: gets share pooled read buffers, so
// a result that kept a reference into one would change under the next
// read (and the race detector would see the write).
func TestConcurrentGetsKeepTheirOwnEntries(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]sim.Result, 16)
	for i := range want {
		want[i] = awkwardResult()
		for j := 0; j < i; j++ {
			want[i].Apps = append(want[i].Apps, sim.AppResult{Name: fmt.Sprintf("app%d-%d", i, j), Insts: uint64(i*100 + j)})
		}
		if err := c.Put(fmt.Sprint("k", i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(want)
				got, ok := c.Get(fmt.Sprint("k", i))
				if !ok || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("k%d: got %+v (hit %v)", i, got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCorruptEntriesAreMisses(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", awkwardResult()); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated":      []byte(`{"schema":1,"key":"k","result":{"Cyc`),
		"garbage":        []byte("\x00\x01\x02 not json"),
		"empty":          {},
		"wrong key":      mustJSON(entry{Schema: SchemaVersion, Key: "other", Result: awkwardResult()}),
		"foreign schema": mustJSON(entry{Schema: SchemaVersion + 1, Key: "k", Result: awkwardResult()}),
	}
	for name, data := range cases {
		if err := os.WriteFile(c.Path("k"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get("k"); ok {
			t.Errorf("%s entry served as a hit", name)
		}
	}
	if s := c.Stats(); s.Corrupt != uint64(len(cases)) {
		t.Fatalf("corrupt count %d, want %d", s.Corrupt, len(cases))
	}

	// RunCached falls back to recompute and heals the entry.
	ran := 0
	res, err := RunCached(nil, c, nil, runner.PriGrid, testSpec(), func(context.Context) (sim.Result, error) {
		ran++
		return awkwardResult(), nil
	})
	if err != nil || ran != 1 {
		t.Fatalf("recompute: err %v, ran %d", err, ran)
	}
	if got, ok := c.Get(Key(testSpec())); !ok || !reflect.DeepEqual(got, res) {
		t.Fatal("healed entry missing or different")
	}
}

// TestReadPathMissesKeepTheirKind pins how the entry read classifies a
// file it cannot use: an empty file is a corrupt miss (it decodes as
// nothing), while a directory in the entry's place and a missing entry
// are plain misses.
func TestReadPathMissesKeepTheirKind(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(path string) error
		want  Stats
	}{
		{"zero-byte file", func(p string) error { return os.WriteFile(p, nil, 0o644) }, Stats{Misses: 1, Corrupt: 1}},
		{"directory", func(p string) error { return os.Mkdir(p, 0o755) }, Stats{Misses: 1}},
		{"missing", func(string) error { return nil }, Stats{Misses: 1}},
	} {
		c, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.setup(c.Path("k")); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get("k"); ok {
			t.Errorf("%s: served as a hit", tc.name)
		}
		if s := c.Stats(); s != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, s, tc.want)
		}
	}
}

// TestLargeEntryTakesSeveralReads reads an entry many times the size of
// readFile's first chunk, into a buffer far smaller still: it must come
// back whole, and decode to what was put.
func TestLargeEntryTakesSeveralReads(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := awkwardResult()
	for i := 0; len(mustJSON(want)) < 5*readChunk; i++ {
		want.Apps = append(want.Apps, sim.AppResult{Name: fmt.Sprint("app", i), Insts: uint64(i), IPC: float64(i) / 7})
	}
	if err := c.Put("big", want); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(c.Path("big"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readFile(c.Path("big"), make([]byte, 0, 16))
	if err != nil || !bytes.Equal(b, onDisk) {
		t.Fatalf("readFile: %d bytes (err %v), want the file's %d", len(b), err, len(onDisk))
	}
	if got, ok := c.Get("big"); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("large entry: hit %v, result differs: %v", ok, !reflect.DeepEqual(got, want))
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func TestRunCachedHitSkipsPoolAndRun(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs := testSpec()
	want := awkwardResult()
	if err := c.Put(Key(rs), want); err != nil {
		t.Fatal(err)
	}
	got, err := RunCached(nil, c, nil, runner.PriEval, rs, func(context.Context) (sim.Result, error) {
		t.Fatal("run executed despite a valid cache entry")
		return sim.Result{}, nil
	})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("hit path: %v %v", got, err)
	}

	// Under a tracer the hit's run span names the key and the scheme.
	tracer := obs.NewTracer()
	if _, err := RunCached(obs.WithTracer(context.Background(), tracer), c, nil, runner.PriEval, rs, nil); err != nil {
		t.Fatal(err)
	}
	var run []obs.Attr
	for _, sp := range tracer.Spans() {
		if sp.Name == "run" {
			run = sp.Attrs
		}
	}
	wantAttrs := []obs.Attr{obs.A("key", Key(rs)), obs.A("scheme", rs.Scheme.String()), obs.A("outcome", obs.OutcomeCached)}
	if !reflect.DeepEqual(run, wantAttrs) {
		t.Errorf("run span attributes %v, want %v", run, wantAttrs)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestRunCachedHitAllocs bounds what a cache hit allocates on the
// default execution path: the canonical scheme, the key, the span
// attributes, the entry's path and the decoded result, but not a copy of
// the entry's bytes, the key's JSON or the spec.
func TestRunCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs := testSpec()
	if err := c.Put(Key(rs), awkwardResult()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := RunCached(ctx, c, nil, runner.PriEval, rs, nil); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 10
	if allocs > bound {
		t.Errorf("%v allocs per cache hit, want <= %d", allocs, bound)
	}
}

func TestRunCachedDedupsConcurrentIdenticalRuns(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(4)
	defer pool.Close()
	rs := testSpec()
	var execs atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunCached(nil, c, pool, runner.PriGrid, rs, func(context.Context) (sim.Result, error) {
				execs.Add(1)
				<-gate
				return awkwardResult(), nil
			})
			if err != nil || len(res.Apps) != 1 {
				t.Errorf("RunCached: %v %v", res, err)
			}
		}()
	}
	for pool.Stats().Deduped+pool.Stats().Ran < 5 {
		// Wait until five submissions have either attached or queued
		// behind the gated execution (cold Gets all miss first).
		if execs.Load() > 1 {
			break
		}
	}
	close(gate)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions for identical specs, want 1", n)
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	if err := c.Put("k", sim.Result{}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.Dir() != "" || c.Stats() != (Stats{}) {
		t.Fatal("nil cache accessors")
	}
	c.Instrument(obs.NewRegistry()) // must not panic
	ran := 0
	if _, err := RunCached(nil, c, nil, runner.PriGrid, testSpec(), func(context.Context) (sim.Result, error) {
		ran++
		return sim.Result{}, nil
	}); err != nil || ran != 1 {
		t.Fatalf("uncached run: %v ran=%d", err, ran)
	}
}

func TestInstrumentCounters(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	c.Get("absent")
	c.Put("k", sim.Result{})
	c.Get("k")
	if v := reg.Counter("ebm_simcache_hits_total", "").Value(); v != 1 {
		t.Fatalf("hits %d", v)
	}
	if v := reg.Counter("ebm_simcache_misses_total", "").Value(); v != 1 {
		t.Fatalf("misses %d", v)
	}
	if v := reg.Counter("ebm_simcache_writes_total", "").Value(); v != 1 {
		t.Fatalf("writes %d", v)
	}
}

func TestLenCountsEntries(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", sim.Result{})
	c.Put("b", sim.Result{})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestRealRunBitIdentityThroughCache is the end-to-end determinism
// guarantee: an actual simulation's cached bytes decode to exactly the
// result a fresh computation returns.
func TestRealRunBitIdentityThroughCache(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	app, _ := kernel.ByName("BFS")
	rs := spec.RunSpec{Config: cfg, Apps: []kernel.Params{app},
		Scheme: spec.Static([]int{4}, nil), TotalCycles: 10_000, WarmupCycles: 2_000}
	fresh1, err := sim.Execute(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(2)
	defer pool.Close()
	cached, err := RunCached(nil, c, pool, runner.PriGrid, rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunCached(nil, c, pool, runner.PriGrid, rs, func(context.Context) (sim.Result, error) {
		t.Fatal("warm lookup re-simulated")
		return sim.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh1, cached) || !reflect.DeepEqual(cached, warm) {
		t.Fatalf("cached result differs from fresh computation:\nfresh %+v\nwarm  %+v", fresh1, warm)
	}
}

// TestKnobbedManagerRoundTripsCache covers what the spec-keyed cache
// newly enables: a manager with a non-default knob (previously
// unidentifiable by name string, hence uncacheable) executing through
// the cache with full bit identity.
func TestKnobbedManagerRoundTripsCache(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	app, _ := kernel.ByName("BFS")
	sch := spec.CCWS()
	sch.CCWS.HighVTA = 0.2
	sch.CCWS.Hysteresis = 3
	rs := spec.RunSpec{Config: cfg, Apps: []kernel.Params{app},
		Scheme: sch, TotalCycles: 10_000, WarmupCycles: 2_000, VictimTags: 64}
	fresh, err := sim.Execute(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunCached(nil, c, nil, runner.PriEval, rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunCached(nil, c, nil, runner.PriEval, rs, func(context.Context) (sim.Result, error) {
		t.Fatal("warm lookup re-simulated")
		return sim.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, cached) || !reflect.DeepEqual(cached, warm) {
		t.Fatal("knobbed run not bit-identical through the cache")
	}

	// The default-knobbed scheme must be a different entry.
	def := rs
	def.Scheme = spec.CCWS()
	if Key(def) == Key(rs) {
		t.Fatal("knobbed and default CCWS share a key")
	}
}
