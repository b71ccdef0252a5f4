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
	if !strings.HasPrefix(string(out), "ebsim ") {
		t.Fatalf("-version printed %q, want the command name and its build", out)
	}
}

// -ledger without -simcache is a usage error, caught before any simulation.
func TestLedgerWithoutSimcacheIsUsageError(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{"-workload", "BLK_TRD", "-simcache", "", "-ledger", filepath.Join(dir, "ledger.jsonl")})
	if !cli.IsUsage(err) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}

// Retired flags are unknown flags, so they are usage errors.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-sandbox"},
	} {
		t.Run(args[0], func(t *testing.T) {
			if err := run(context.Background(), args); !cli.IsUsage(err) {
				t.Fatalf("run(%q) = %v, want a usage error", args, err)
			}
		})
	}
}
