package cli

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ebm/internal/obs"
)

// newTestSession registers every group on a fresh FlagSet named "t"
// whose output is discarded, then parses args.
func newTestSession(t *testing.T, ledgerDefault string, args ...string) *Session {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := NewSession(fs, Cache|Ckpt|Spans|Profile, ledgerDefault)
	if done, err := s.Parse(args); done || err != nil {
		t.Fatalf("Parse(%v) = %v, %v", args, done, err)
	}
	return s
}

func TestLedgerAutoSitsBesideSimcache(t *testing.T) {
	dir := t.TempDir()
	s := newTestSession(t, "auto", "-simcache", filepath.Join(dir, "simcache"))
	if _, err := s.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := s.Ledger().Path(), filepath.Join(dir, "ledger.jsonl"); got != want {
		t.Fatalf("auto ledger at %q, want %q", got, want)
	}
	if s.Cache().Ledger() != s.Ledger() {
		t.Fatal("the ledger is not installed on the cache")
	}

	off := newTestSession(t, "auto", "-simcache", "")
	if _, err := off.Open(context.Background()); err != nil {
		t.Fatalf("auto under -simcache \"\": %v", err)
	}
	defer off.Close()
	if off.Ledger() != nil || off.Cache() != nil || len(off.LedgerPaths()) != 0 {
		t.Fatal("auto under -simcache \"\" opened a ledger or a cache")
	}
}

func TestLedgerUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-simcache", "", "-ledger", filepath.Join(dir, "l.jsonl")},
		{"-simcache", filepath.Join(dir, "sc"), "-ledger", "a.jsonl", "-ledger", "b.jsonl"},
	} {
		s := newTestSession(t, "", args...)
		if _, err := s.Open(context.Background()); !IsUsage(err) {
			t.Errorf("Open with %v = %v, want a usage error", args, err)
		}
	}
}

// An unknown flag is a usage error (exit 2); -h is not.
func TestParseFlagErrors(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := NewSession(fs, Cache, "").Parse(args)
		return err
	}
	if err := parse("-search", "adaptive"); !IsUsage(err) {
		t.Errorf("unknown flag: %v, want a usage error", err)
	}
	if err := parse("-h"); IsUsage(err) || ExitCode(err) != ExitOK {
		t.Errorf("-h: %v (exit %d), want flag.ErrHelp (exit 0)", err, ExitCode(err))
	}
}

func TestTraceSpansWritesRootSpan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.json")
	s := newTestSession(t, "", "-simcache", "", "-trace-spans", path)
	ctx, err := s.Open(context.Background(), obs.A("workload", "BLK_TRD"))
	if err != nil {
		t.Fatal(err)
	}
	_, sp := obs.StartSpan(ctx, "child")
	sp.End()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("-trace-spans is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Name] = true
	}
	if !names["t"] || !names["child"] {
		t.Fatalf("span names %v, want the root span %q and its child", names, "t")
	}
}

func TestBadCPUProfileFailsAtOpen(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "simcache")
	s := newTestSession(t, "", "-simcache", cache, "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof"))
	if _, err := s.Open(context.Background()); err == nil {
		t.Fatal("Open succeeded with an unwritable -cpuprofile")
	}
	if _, err := os.Stat(cache); !os.IsNotExist(err) {
		t.Fatalf("a failed Open still created the cache directory (stat: %v)", err)
	}
}

func TestCloseReleasesLedgerAndWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	s := newTestSession(t, "auto", "-simcache", filepath.Join(dir, "simcache"),
		"-cpuprofile", cpu, "-memprofile", mem)
	if _, err := s.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ledger().Append(obs.RunRecord{}); err == nil {
		t.Fatal("the ledger still accepts records after Close")
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s after Close: %v", p, err)
		}
	}
}
