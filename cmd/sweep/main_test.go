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
	if !strings.HasPrefix(string(out), "sweep ") {
		t.Fatalf("-version printed %q, want the command name and its build", out)
	}
}

// Outside -explain, more than one -ledger is a usage error.
func TestRepeatedLedgerIsUsageError(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{"-simcache", filepath.Join(dir, "simcache"), "-ledger", filepath.Join(dir, "a.jsonl"), "-ledger", filepath.Join(dir, "b.jsonl")})
	if !cli.IsUsage(err) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}

// Retired flags are unknown flags, so they are usage errors: the grid
// is the only search, and the engine is the only decision check.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-search", "adaptive"},
		{"-sandbox"},
	} {
		t.Run(args[0], func(t *testing.T) {
			if err := run(context.Background(), args); !cli.IsUsage(err) {
				t.Fatalf("run(%q) = %v, want a usage error", args, err)
			}
		})
	}
}
