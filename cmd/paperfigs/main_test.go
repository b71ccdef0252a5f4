package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebm/internal/cli"
)

func TestVersion(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = run(context.Background(), []string{"-version"})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), "paperfigs ") {
		t.Fatalf("-version printed %q, want the command name and its build", out)
	}
}

// -ledger without -simcache is a usage error, caught before any profiling.
func TestTESTpaperfigs(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{"-id", "table4", "-simcache", "", "-ledger", filepath.Join(dir, "ledger.jsonl")})
	if !cli.IsUsage(err) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}

// The figures always search the exhaustive grid: -adaptive is not a flag.
func TestAdaptiveFlagIsUsageError(t *testing.T) {
	if err := run(context.Background(), []string{"-adaptive", "-id", "table4"}); !cli.IsUsage(err) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}
