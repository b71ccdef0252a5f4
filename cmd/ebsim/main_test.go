package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebm/internal/cli"
	"ebm/internal/config"
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
		{"-chaos"},
		{"-chaos-seed", "3"},
	} {
		t.Run(args[0], func(t *testing.T) {
			if err := run(context.Background(), args); !cli.IsUsage(err) {
				t.Fatalf("run(%q) = %v, want a usage error", args, err)
			}
		})
	}
}

// With -ckpt, the workload's alone profiles run through the checkpoint
// store like the main run: a repeated invocation forks every profile run
// and the main run from the snapshots the first one persisted.
func TestCkptForksProfileRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a workload twice")
	}
	dir := t.TempDir()
	args := []string{"-workload", "BLK_TRD", "-cycles", "20000", "-warmup", "5000",
		"-simcache", "", "-ckpt", dir}
	var stderr string
	for i := 0; i < 2; i++ {
		var err error
		if stderr, err = runCapturingStderr(args); err != nil {
			t.Fatal(err)
		}
	}
	want := fmt.Sprintf("ebsim: ckpt: %d forks,", 2*len(config.TLPLevels)+1)
	if !strings.Contains(stderr, want) {
		t.Fatalf("second run's stderr lacks %q:\n%s", want, stderr)
	}
}

// runCapturingStderr calls run with os.Stderr redirected and returns
// what it wrote there.
func runCapturingStderr(args []string) (string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	stderr := os.Stderr
	os.Stderr = w
	out := make(chan []byte)
	go func() { b, _ := io.ReadAll(r); out <- b }()
	err = run(context.Background(), args)
	os.Stderr = stderr
	w.Close()
	return string(<-out), err
}
