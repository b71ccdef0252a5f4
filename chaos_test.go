package ebm_test

// Chaos tests: drive a real grid build through injected cache and
// checkpoint I/O failures, a crashing task, and a genuine mid-build
// SIGINT, and prove the resilience contract of DESIGN.md §10 end to end —
// the on-disk result cache is never torn, an interrupted sweep's state is
// resumable, and a clean rerun replays bit-identically from it even when
// it forks from checkpoints the faulty runs left behind. `make chaos`
// runs these under the race detector.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/faultinject"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/runner"
	"ebm/internal/search"
	"ebm/internal/simcache"
)

func chaosApps(t *testing.T) []kernel.Params {
	t.Helper()
	a, ok := kernel.ByName("BLK")
	if !ok {
		t.Fatal("no BLK")
	}
	b, ok := kernel.ByName("BFS")
	if !ok {
		t.Fatal("no BFS")
	}
	return []kernel.Params{a, b}
}

func chaosGridOpts(cache *simcache.Cache, pool *runner.Runner, store *ckpt.Store) search.GridOptions {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	return search.GridOptions{
		Config:       cfg,
		Levels:       []int{1, 8, 24},
		TotalCycles:  8_000,
		WarmupCycles: 2_000,
		Parallelism:  4,
		Runner:       pool,
		Cache:        cache,
		Ckpt:         store,
	}
}

// assertNoTornEntries parses every file in the cache directory: each
// .json entry must unmarshal with the current schema and a key matching
// its filename, and no abandoned temp files may remain visible as
// entries.
func assertNoTornEntries(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("unreadable cache entry %s: %v", e.Name(), err)
		}
		var entry struct {
			Schema int             `json:"schema"`
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(b, &entry); err != nil {
			t.Fatalf("torn cache entry %s: %v", e.Name(), err)
		}
		if entry.Schema != simcache.SchemaVersion {
			t.Fatalf("entry %s has schema %d, want %d", e.Name(), entry.Schema, simcache.SchemaVersion)
		}
		if want := strings.TrimSuffix(e.Name(), ".json"); entry.Key != want {
			t.Fatalf("entry %s carries key %s", e.Name(), entry.Key)
		}
	}
}

// TestChaosGridBuildSurvivesFaultsAndResumes is the full three-act
// storyline from the failure model:
//
// Act 1 — a grid build under injected cache read/write faults and exactly
// one task panic fails loudly (the panic surfaces as the build error),
// but every cache entry it managed to persist is valid.
//
// Act 2 — a rerun under a real SIGINT delivered mid-build aborts with
// a cancellation error, again leaving only valid entries, with part of
// the grid persisted.
//
// Act 3 — a clean rerun completes from the surviving state with cache
// hits (forking from whatever checkpoints the faulty runs persisted), and
// its grid is bit-identical to a build that never saw a fault.
func TestChaosGridBuildSurvivesFaultsAndResumes(t *testing.T) {
	apps := chaosApps(t)
	dir := t.TempDir()
	ckptDir := t.TempDir()

	// Reference: an undisturbed build in a separate cache directory, with
	// no checkpoint store at all.
	refPool := runner.New(4)
	refCache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := search.BuildGrid(context.Background(), apps, chaosGridOpts(refCache, refPool, nil))
	refPool.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Act 1: cache and checkpoint faults plus one injected task panic.
	oldWarnf := simcache.Warnf
	simcache.Warnf = func(string, ...any) {} // degradation warnings are expected noise here
	t.Cleanup(func() { simcache.Warnf = oldWarnf })

	cache1, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
	ledger, err := obs.OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ledger.Close() })
	cache1.SetLedger(ledger)
	inj := faultinject.New(faultinject.Config{
		Seed:              11,
		CacheReadErrProb:  0.3,
		CacheWriteErrProb: 0.3,
		TaskPanicProb:     1,
		MaxTaskPanics:     1,
	})
	reg := obs.NewRegistry()
	mon := resilience.NewMonitor(reg, nil)
	cache1.SetHooks(inj)
	cache1.SetMonitor(mon)
	store1, err := ckpt.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	store1.SetEvery(1)
	store1.SetHooks(inj) // checkpoint reads and writes share the injector
	store1.SetMonitor(mon)
	pool1 := runner.New(4)
	pool1.SetHooks(inj)
	_, err = search.BuildGrid(context.Background(), apps, chaosGridOpts(cache1, pool1, store1))
	pool1.Close()
	if err == nil {
		t.Fatal("the injected task panic did not surface as a build error")
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("build error %v does not carry the injected panic", err)
	}
	if c := inj.Counts(); c.Panics != 1 {
		t.Fatalf("injector crashed %d tasks, want exactly 1", c.Panics)
	}
	assertNoTornEntries(t, dir)
	// The provenance ledger is the faulty build's honest confession: every
	// completed run appended a whole record, and the injected cache faults
	// and the retries they provoked are visible in those records.
	recs, skipped, err := obs.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("faulty build tore %d ledger lines", skipped)
	}
	if len(recs) == 0 {
		t.Fatal("no provenance records from the faulty build")
	}
	var faults, retries int
	for _, r := range recs {
		faults += len(r.Faults)
		retries += r.Retries
	}
	if faults == 0 && retries == 0 {
		t.Fatal("30% cache fault probability left no trace in any provenance record")
	}

	// Act 2: a real SIGINT lands mid-build. The notify context is exactly
	// what the sweep binary runs under.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cache2, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := ckpt.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	store2.SetEvery(1)
	pool2 := runner.New(2)
	opts2 := chaosGridOpts(cache2, pool2, store2)
	var sigSent atomic.Bool
	opts2.Progress = func(done, total int, combo []int) {
		if sigSent.CompareAndSwap(false, true) {
			syscall.Kill(os.Getpid(), syscall.SIGINT)
			// Progress runs under the builder's lock: holding it until the
			// signal lands guarantees no further combination is recorded
			// after the interrupt, making the partial-persist deterministic.
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
		}
	}
	_, err = search.BuildGrid(ctx, apps, opts2)
	pool2.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SIGINT build error = %v, want a context.Canceled wrap", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the SIGINT never cancelled the notify context")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("build error %v does not report the interruption", err)
	}
	assertNoTornEntries(t, dir)
	persisted := cache2.Len()
	if persisted == 0 {
		t.Fatal("nothing persisted before the SIGINT: the resume would start cold")
	}

	// Act 3: clean resume. No hooks, background context; the surviving
	// cache entries replay, the remainder forks from whatever checkpoints
	// acts 1 and 2 persisted (or simulates from cycle zero where none
	// survived), and the grid must still match the checkpoint-free
	// reference bit for bit.
	cache3, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store3, err := ckpt.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	pool3 := runner.New(4)
	defer pool3.Close()
	resumed, err := search.BuildGrid(context.Background(), apps, chaosGridOpts(cache3, pool3, store3))
	if err != nil {
		t.Fatalf("clean resume failed: %v", err)
	}
	if hits := cache3.Stats().Hits; hits == 0 {
		t.Fatal("resume replayed nothing from the surviving cache state")
	}
	if !reflect.DeepEqual(resumed.Results, ref.Results) {
		t.Fatal("resumed grid is not bit-identical to the undisturbed build")
	}
	assertNoTornEntries(t, dir)
}
