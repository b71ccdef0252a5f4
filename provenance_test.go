package ebm_test

// Provenance integration tests: drive real grid builds and checkpoint
// forks with the span tracer and the run ledger attached, and prove the
// observability contract end to end — tracing and provenance never
// perturb results (bit-identity against an uninstrumented build), a warm
// rerun's ledger reads 100% cached, and a forked run's record carries
// its restore depth.

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/search"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
)

// ledgeredCache opens a result cache with a fresh provenance ledger.
func ledgeredCache(t *testing.T, cacheDir, ledgerPath string) *simcache.Cache {
	t.Helper()
	cache, err := simcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := obs.OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cache.SetLedger(l)
	return cache
}

// TestTracedSweepBitIdenticalAndWarmLedgerAllCached checks that a grid
// build with spans and provenance fully enabled is bit-identical to an
// uninstrumented build, and that the warm rerun's ledger reports zero
// cold and zero forked runs.
func TestTracedSweepBitIdenticalAndWarmLedgerAllCached(t *testing.T) {
	apps := chaosApps(t)
	dir := t.TempDir()

	// Reference: no cache, no tracer, no ledger.
	refPool := runner.New(4)
	ref, err := search.BuildGrid(context.Background(), apps, chaosGridOpts(nil, refPool, nil))
	refPool.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Cold pass with everything on.
	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	cache1 := ledgeredCache(t, dir, filepath.Join(t.TempDir(), "cold.jsonl"))
	pool1 := runner.New(4)
	cold, err := search.BuildGrid(ctx, apps, chaosGridOpts(cache1, pool1, nil))
	pool1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Results, ref.Results) {
		t.Fatal("tracing+ledger perturbed the grid results")
	}

	// The span tree covers every layer of the build.
	names := map[string]bool{}
	for _, s := range tracer.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"grid-build", "cell", "run", "cache.get", "execute", "cache.put", "pool.do"} {
		if !names[want] {
			t.Errorf("no %q span recorded (got %v)", want, names)
		}
	}
	var b strings.Builder
	if err := obs.WriteSpanTrace(&b, tracer); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("span trace is not valid trace-event JSON: %v", err)
	}

	recs, skipped, err := obs.ReadLedger(cache1.Ledger().Path())
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != len(cold.Results) {
		t.Fatalf("cold ledger: %d records (%d skipped), want %d", len(recs), skipped, len(cold.Results))
	}
	for _, r := range recs {
		if r.Outcome != obs.OutcomeCold {
			t.Fatalf("cold pass recorded outcome %q: %+v", r.Outcome, r)
		}
	}

	// Warm pass: fresh ledger on the same cache directory. Every record
	// must read "cached" and the -explain summary must say so.
	warmLedger := filepath.Join(t.TempDir(), "warm.jsonl")
	cache2 := ledgeredCache(t, dir, warmLedger)
	pool2 := runner.New(4)
	warm, err := search.BuildGrid(context.Background(), apps, chaosGridOpts(cache2, pool2, nil))
	pool2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Results, ref.Results) {
		t.Fatal("warm replay diverged from the reference grid")
	}
	wrecs, wskipped, err := obs.ReadLedger(warmLedger)
	if err != nil {
		t.Fatal(err)
	}
	if wskipped != 0 || len(wrecs) != len(warm.Results) {
		t.Fatalf("warm ledger: %d records (%d skipped), want %d", len(wrecs), wskipped, len(warm.Results))
	}
	for _, r := range wrecs {
		if r.Outcome != obs.OutcomeCached {
			t.Fatalf("warm pass recorded outcome %q: %+v", r.Outcome, r)
		}
	}
	sum := obs.SummarizeLedger(wrecs, 3)
	if sum.Cold != 0 || sum.Forked != 0 || sum.Cached != len(wrecs) {
		t.Fatalf("warm summary = %+v", sum)
	}
	var txt strings.Builder
	sum.WriteText(&txt)
	if !strings.Contains(txt.String(), "0 cold / 0 forked") {
		t.Fatalf("-explain text missing the warm verdict:\n%s", txt.String())
	}
}

// TestForkedRunRecordsRestoreDepth pins the forked@depth provenance: a
// longer-horizon rerun of a checkpointed prefix must append a "forked"
// record carrying the restore window and the checkpoint schema, while
// still matching the from-zero simulation bit for bit.
func TestForkedRunRecordsRestoreDepth(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	app, ok := kernel.ByName("BLK")
	if !ok {
		t.Fatal("no BLK")
	}
	mkSpec := func(total uint64) spec.RunSpec {
		return spec.RunSpec{
			Config:       cfg,
			Apps:         []kernel.Params{app},
			Scheme:       spec.Static([]int{4}, nil),
			TotalCycles:  total,
			WarmupCycles: 2_000,
		}
	}

	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.SetEvery(1) // snapshot every window boundary

	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	cache := ledgeredCache(t, filepath.Join(dir, "simcache"), ledgerPath)

	// Short run: 2 default windows, persists prefix snapshots.
	short := mkSpec(2 * sim.DefaultWindowCycles)
	if _, err := simcache.RunCached(context.Background(), cache, nil, 0, short, ckpt.Runner(store, short)); err != nil {
		t.Fatal(err)
	}
	// Long run: a different key (3 windows), so the cache misses and the
	// execution forks from the deepest shared-prefix snapshot.
	long := mkSpec(3 * sim.DefaultWindowCycles)
	forked, err := simcache.RunCached(context.Background(), cache, nil, 0, long, ckpt.Runner(store, long))
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Forks == 0 {
		t.Fatal("the long run never forked; the provenance assertion below would be vacuous")
	}
	fromZero, err := sim.Execute(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forked, fromZero) {
		t.Fatal("forked run diverged from the from-zero simulation")
	}

	recs, skipped, err := obs.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != 2 {
		t.Fatalf("ledger: %d records (%d skipped), want 2", len(recs), skipped)
	}
	if recs[0].Outcome != obs.OutcomeCold {
		t.Fatalf("short run outcome = %q, want cold", recs[0].Outcome)
	}
	fk := recs[1]
	if fk.Outcome != obs.OutcomeForked || fk.ForkWindow == 0 {
		t.Fatalf("long run record = %+v, want forked@>0", fk)
	}
	if fk.CkptSchema != ckpt.SchemaVersion {
		t.Fatalf("forked record ckpt schema = %d, want %d", fk.CkptSchema, ckpt.SchemaVersion)
	}
	if fk.OutcomeString() != "forked@2" {
		t.Fatalf("OutcomeString = %q, want forked@2 (restore at the deepest shared window)", fk.OutcomeString())
	}
}
