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
	if !strings.HasPrefix(string(out), "sweepd ") {
		t.Fatalf("-version printed %q, want the command name and its build", out)
	}
}

// -ledger without -simcache is a usage error, caught before the coordinator listens.
func TestTESTsweepd(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{"-simcache", "", "-ledger", filepath.Join(dir, "ledger.jsonl"), "-listen", "127.0.0.1:0"})
	if !cli.IsUsage(err) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}
