package experiments

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"ebm/internal/config"
	"ebm/internal/sim"
	"ebm/internal/workload"
)

// TestDecisionPanelsCancelWithinOneWindow: the panels that read the
// policy's decision record run through Env.Run, so cancelling the
// environment's context stops them at the running simulation's next
// window boundary, with the context's error. Each panel's first run is
// far longer than the test waits, so only the cancel can end it; engine
// work is counted in whole windows, so after the cancel it may grow by
// at most the window the run is in. Every first run's window is 1000
// cycles: the environment's, and ablWindow's shortest, which it runs
// first.
func TestDecisionPanelsCancelWithinOneWindow(t *testing.T) {
	const window = 1_000
	cache := t.TempDir() // the alone profiles replay from the second panel on
	for _, p := range []struct {
		name string
		run  func(*Env, io.Writer) error
	}{
		{"fig11", Fig11},
		{"ablation window", ablWindow},
		{"extras phases", extraPhases},
	} {
		t.Run(p.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := config.Default()
			cfg.NumCores = 4
			cfg.NumMemPartitions = 4
			env, err := NewEnv(ctx, Options{
				Config:       cfg,
				GridCycles:   8_000,
				GridWarmup:   1_000,
				EvalCycles:   50_000_000,
				EvalWarmup:   1_000,
				WindowCycles: window,
				Workloads:    []workload.Workload{workload.MustMake("BLK", "BFS")},
				Parallelism:  2,
				SimCache:     cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			start := sim.CyclesSimulated()
			done := make(chan error, 1)
			go func() { done <- p.run(env, io.Discard) }()
			deadline := time.Now().Add(time.Minute)
			for sim.CyclesSimulated() == start {
				if time.Now().After(deadline) {
					t.Fatal("the panel never completed a window")
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			at := sim.CyclesSimulated()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("panel returned %v, want context.Canceled", err)
				}
			case <-time.After(time.Minute):
				t.Fatal("the panel did not stop after the cancel")
			}
			if ran := sim.CyclesSimulated() - at; ran > window {
				t.Fatalf("the engine ran %d cycles after the cancel, more than one %d-cycle window", ran, window)
			}
		})
	}
}
