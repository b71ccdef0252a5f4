package simcache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/runner"
	"ebm/internal/sim"
)

// captureWarnf redirects the degradation warnings into the test and
// restores stderr reporting afterwards.
func captureWarnf(t *testing.T) *[]string {
	t.Helper()
	var lines []string
	old := Warnf
	Warnf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	t.Cleanup(func() { Warnf = old })
	return &lines
}

// flakyWriteHooks fails the first N CacheWrite calls, then heals.
type flakyWriteHooks struct {
	failures int
	calls    int
}

func (h *flakyWriteHooks) CacheRead(string) error { return nil }
func (h *flakyWriteHooks) CacheWrite(key string) error {
	h.calls++
	if h.calls <= h.failures {
		return fmt.Errorf("flaky write %d: %w", h.calls, faultinject.ErrInjected)
	}
	return nil
}
func (h *flakyWriteHooks) TaskStart(string)      {}
func (h *flakyWriteHooks) WindowBoundary(uint64) {}

// TestWriteFailureDegradesToDirectExecution simulates a persistently
// broken cache filesystem (the directory is replaced by a regular file,
// so every temp-file create fails like ENOSPC would): the run must still
// return its computed result, warn once, and count the failure — never
// abort.
func TestWriteFailureDegradesToDirectExecution(t *testing.T) {
	warns := captureWarnf(t)
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	mon := resilience.NewMonitor(reg, nil)
	c.SetMonitor(mon)

	// Break the cache medium out from under the handle.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	want := awkwardResult()
	got, err := RunCached(nil, c, nil, runner.PriGrid, testSpec(), func(context.Context) (sim.Result, error) {
		return want, nil
	})
	if err != nil {
		t.Fatalf("broken cache aborted the run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("degraded run returned a different result")
	}
	if s := c.Stats(); s.WriteFails != 1 {
		t.Fatalf("WriteFails = %d, want 1", s.WriteFails)
	}
	if got := mon.CacheRetries.Value(); got != 2 {
		t.Fatalf("retries counted = %d, want Attempts-1 = 2", got)
	}
	if len(*warns) != 1 || !strings.Contains((*warns)[0], "not persisted") {
		t.Fatalf("warnings = %q, want one 'not persisted' warning", *warns)
	}
}

// TestReadOnlyCacheDirDegrades covers the chmod-0500 flavour of the same
// failure on systems where permissions bind (root bypasses them, so the
// test skips under euid 0 — the ENOTDIR variant above runs everywhere).
func TestReadOnlyCacheDirDegrades(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions do not bind")
	}
	warns := captureWarnf(t)
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })

	want := awkwardResult()
	got, err := RunCached(nil, c, nil, runner.PriGrid, testSpec(), func(context.Context) (sim.Result, error) {
		return want, nil
	})
	if err != nil {
		t.Fatalf("read-only cache aborted the run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("degraded run returned a different result")
	}
	if s := c.Stats(); s.WriteFails != 1 {
		t.Fatalf("WriteFails = %d, want 1", s.WriteFails)
	}
	if len(*warns) != 1 {
		t.Fatalf("warnings = %q, want exactly one", *warns)
	}
}

// TestTransientWriteFailureHealedByRetry: the first write attempt fails,
// the backoff retry succeeds, and the entry lands on disk with no
// surfaced degradation.
func TestTransientWriteFailureHealedByRetry(t *testing.T) {
	warns := captureWarnf(t)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mon := resilience.NewMonitor(reg, nil)
	c.SetHooks(&flakyWriteHooks{failures: 1})
	c.SetMonitor(mon)

	want := awkwardResult()
	if _, err := RunCached(nil, c, nil, runner.PriGrid, testSpec(), func(context.Context) (sim.Result, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := mon.CacheRetries.Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if s := c.Stats(); s.WriteFails != 0 || s.Writes != 1 {
		t.Fatalf("stats = %+v, want the healed write persisted", s)
	}
	if len(*warns) != 0 {
		t.Fatalf("healed write still warned: %q", *warns)
	}
	if got, ok := c.Get(Key(testSpec())); !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("healed entry not readable from disk")
	}
}

// TestInjectedReadErrorDegradesLikeCorruptEntry: a valid entry exists on
// disk, but the read fault makes it unreadable — the lookup must count a
// corrupt miss and fall through to direct execution.
func TestInjectedReadErrorDegradesLikeCorruptEntry(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key(testSpec())
	if err := c.Put(key, awkwardResult()); err != nil {
		t.Fatal(err)
	}
	c.SetHooks(faultinject.New(faultinject.Config{CacheReadErrProb: 1, CacheWriteErrProb: 1}))
	captureWarnf(t)

	executed := false
	if _, err := RunCached(nil, c, nil, runner.PriGrid, testSpec(), func(context.Context) (sim.Result, error) {
		executed = true
		return awkwardResult(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !executed {
		t.Fatal("unreadable entry did not fall through to direct execution")
	}
	s := c.Stats()
	if s.Corrupt == 0 || s.Misses == 0 {
		t.Fatalf("stats = %+v, want the injected read counted as a corrupt miss", s)
	}
}

// TestMidWriteInterruptLeavesRecoverableCache: a torn temp file and a
// truncated entry (what a kill mid-write leaves behind) must read as a
// miss, then be healed by the next run's atomic rewrite.
func TestMidWriteInterruptLeavesRecoverableCache(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key(testSpec())
	// A torn entry: valid JSON prefix, cut mid-stream.
	if err := os.WriteFile(c.Path(key), []byte(`{"schema":2,"key":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	// An abandoned temp file from the interrupted writer.
	if err := os.WriteFile(filepath.Join(c.Dir(), key+".tmp123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(key); ok {
		t.Fatal("torn entry served as a hit")
	}
	want := awkwardResult()
	got, err := RunCached(nil, c, nil, runner.PriGrid, testSpec(), func(context.Context) (sim.Result, error) {
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovery run returned a different result")
	}
	if healed, ok := c.Get(key); !ok || !reflect.DeepEqual(healed, want) {
		t.Fatal("torn entry was not healed by the rewrite")
	}
}

// TestCancelledRunCountsRunsCancelled: a cancel surfaces ctx.Err, returns
// a zero result (nothing partial can ever be cached), and lands on the
// runs_cancelled counter.
func TestCancelledRunCountsRunsCancelled(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mon := resilience.NewMonitor(reg, nil)
	c.SetMonitor(mon)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := RunCached(ctx, c, nil, runner.PriGrid, testSpec(), func(context.Context) (sim.Result, error) {
		t.Error("cancelled run executed")
		return sim.Result{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(res, sim.Result{}) {
		t.Fatal("cancelled run returned a non-zero result")
	}
	if got := mon.RunsCancelled.Value(); got != 1 {
		t.Fatalf("runs_cancelled = %d, want 1", got)
	}
	if c.Len() != 0 {
		t.Fatal("cancelled run persisted an entry")
	}
}
