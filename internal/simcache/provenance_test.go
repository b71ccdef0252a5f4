package simcache

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/sim"
)

// openLedgered returns a cache with a provenance ledger attached, plus
// the ledger path for reading it back.
func openLedgered(t *testing.T) (*Cache, string) {
	t.Helper()
	dir := t.TempDir()
	c, err := Open(filepath.Join(dir, "simcache"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ledger.jsonl")
	l, err := obs.OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c.SetLedger(l)
	return c, path
}

// TestRunCachedAppendsColdThenCachedRecords is the ledger's core
// contract: a cold run appends one "cold" record, and the warm replay of
// the exact same spec appends one "cached" record with the same
// fingerprint.
func TestRunCachedAppendsColdThenCachedRecords(t *testing.T) {
	c, path := openLedgered(t)
	rs := testSpec()
	want := awkwardResult()
	runs := 0
	stub := func(context.Context) (sim.Result, error) { runs++; return want, nil }

	r1, err := RunCached(context.Background(), c, nil, 0, rs, stub)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCached(context.Background(), c, nil, 0, rs, stub)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("stub ran %d times, want 1", runs)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("warm replay diverged from the computed result")
	}

	recs, skipped, err := obs.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != 2 {
		t.Fatalf("recs=%d skipped=%d, want 2/0", len(recs), skipped)
	}
	key := Key(rs)
	for i, r := range recs {
		if r.Fingerprint != key {
			t.Fatalf("record %d fingerprint %q, want %q", i, r.Fingerprint, key)
		}
		if r.CacheSchema != SchemaVersion || r.Scheme != rs.Scheme.String() || r.Apps != "BLK" {
			t.Fatalf("record %d = %+v", i, r)
		}
		if r.Cycles != want.Cycles || r.WallNs < 0 {
			t.Fatalf("record %d cost fields = %+v", i, r)
		}
	}
	if recs[0].Outcome != obs.OutcomeCold || recs[1].Outcome != obs.OutcomeCached {
		t.Fatalf("outcomes = %q,%q, want cold,cached", recs[0].Outcome, recs[1].Outcome)
	}
	// A warm ledger summarizes to zero cold work — the -explain line.
	s := obs.SummarizeLedger(recs[1:], 0)
	if s.Cold != 0 || s.Forked != 0 || s.Cached != 1 {
		t.Fatalf("warm summary = %+v", s)
	}
}

// TestProvenanceRecordsInjectedFaultsAndRetries pins the chaos-side
// contract deterministically: with every cache read and write failing,
// the run still completes, and its ledger record carries the injected
// fault labels and the retry count.
func TestProvenanceRecordsInjectedFaultsAndRetries(t *testing.T) {
	captureWarnf(t)
	c, path := openLedgered(t)
	c.SetHooks(faultinject.New(faultinject.Config{
		Seed: 1, CacheReadErrProb: 1, CacheWriteErrProb: 1,
	}))

	res, err := RunCached(context.Background(), c, nil, 0, testSpec(),
		func(context.Context) (sim.Result, error) { return awkwardResult(), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, awkwardResult()) {
		t.Fatal("injected faults changed the returned result")
	}

	recs, _, err := obs.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Outcome != obs.OutcomeCold {
		t.Fatalf("outcome = %q, want cold", r.Outcome)
	}
	// resilience.Retry makes 3 persist attempts: 2 retried failures, then
	// the exhausted retry degrades to an unpersisted result.
	if r.Retries != 2 {
		t.Fatalf("retries = %d, want 2", r.Retries)
	}
	faults := map[string]int{}
	for _, f := range r.Faults {
		faults[f]++
	}
	// Two failed reads (the outer lookup and the pre-execution re-check)
	// and one exhausted write.
	if faults["cache-read"] != 2 || faults["cache-write"] != 1 {
		t.Fatalf("faults = %v", r.Faults)
	}
}

// TestDedupWaiterRecordsCached pins the singleflight attribution rule:
// when two identical runs race, exactly one record reads "cold" (the
// execution) and the other reads "cached" (the waiter shared it).
func TestDedupWaiterRecordsCached(t *testing.T) {
	c, path := openLedgered(t)
	pool := runner.New(2)
	defer pool.Close()
	rs := testSpec()

	started := make(chan struct{})
	release := make(chan struct{})
	run := func(context.Context) (sim.Result, error) {
		close(started)
		<-release
		return awkwardResult(), nil
	}

	errs := make(chan error, 2)
	go func() {
		_, err := RunCached(context.Background(), c, pool, runner.PriGrid, rs, run)
		errs <- err
	}()
	<-started // the first call is executing; the second must dedup onto it
	go func() {
		_, err := RunCached(context.Background(), c, pool, runner.PriGrid, rs,
			func(context.Context) (sim.Result, error) {
				t.Error("dedup waiter executed its own run")
				return sim.Result{}, nil
			})
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter attach to the inflight key
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	recs, _, err := obs.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	got := map[string]int{}
	for _, r := range recs {
		got[r.Outcome]++
	}
	if got[obs.OutcomeCold] != 1 || got[obs.OutcomeCached] != 1 {
		t.Fatalf("outcomes = %v, want one cold + one cached", got)
	}
}

// TestNoLedgerNoRecords: without SetLedger the trail machinery stays off
// and RunCached appends nothing anywhere.
func TestNoLedgerNoRecords(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(filepath.Join(dir, "simcache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached(context.Background(), c, nil, 0, testSpec(),
		func(ctx context.Context) (sim.Result, error) {
			if obs.TrailFrom(ctx) != nil {
				t.Error("trail attached without a ledger")
			}
			return awkwardResult(), nil
		}); err != nil {
		t.Fatal(err)
	}
	if c.Ledger() != nil {
		t.Fatal("ledger appeared from nowhere")
	}
}
