package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"ebm/internal/config"
	pbscore "ebm/internal/core"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/sim"
	"ebm/internal/tlp"
	"ebm/internal/workload"
)

// TestGoldenSnapshotRestore extends the golden bit-identity suite to the
// checkpoint path: for every golden configuration and a set of prefix
// lengths k (window-aligned, unaligned, before and at the warmup
// boundary), run(k); Snapshot; Restore into a fresh machine; run(N-k)
// must reproduce the uninterrupted run's Result exactly — every float bit
// included, via DeepEqual.
func TestGoldenSnapshotRestore(t *testing.T) {
	// Prefix lengths must exceed the warmup (Options validation rejects a
	// run that ends before measurement starts); pre-warmup fork points are
	// covered by TestSnapshotEveryWindowFidelity, whose first boundary
	// lands before its warmup cycle.
	prefixes := map[string][]uint64{
		// N=60000, warmup 10000, window 2500.
		"pbs-ws/BLK_TRD": {12_345, 30_000, 57_500, 58_765},
		// N=40000, warmup 5000, window 5000 (default).
		"maxtlp/BFS_FFT": {7_500, 20_000, 23_456, 38_765},
		// N=160000, warmup 10000, window 2500: forks mid-sweep, mid-tune
		// and after the search settled, so the fork's decision record
		// starts from each stage of the restored one.
		"pbs-ws/BFS_FFT": {40_000, 101_234, 128_765},
	}
	// One unaligned prefix per configuration, inside the last window,
	// also forks with observers attached: the fork's one window starts
	// before its restore point, and the gauges it publishes must equal
	// the uninterrupted run's.
	observedAt := map[string]uint64{"pbs-ws/BLK_TRD": 58_765, "maxtlp/BFS_FFT": 38_765}
	for _, g := range goldenRuns {
		g := g
		t.Run(g.label, func(t *testing.T) {
			observed := func() (sim.Options, *obs.Registry) {
				opts, reg := g.opts(), obs.NewRegistry()
				opts.Obs = &obs.Observer{Metrics: reg}
				return opts, reg
			}
			metricsText := func(reg *obs.Registry) string {
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Fatal(err)
				}
				return filterHistLines(sb.String())
			}
			opts, reg := observed()
			s, err := sim.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			golden := s.Run()
			goldenMetrics := metricsText(reg)
			for _, k := range prefixes[g.label] {
				short := g.opts()
				total := short.TotalCycles
				short.TotalCycles = k
				ps, err := sim.New(short)
				if err != nil {
					t.Fatal(err)
				}
				ps.Run()
				data, err := ps.SnapshotBytes()
				if err != nil {
					t.Fatalf("k=%d: snapshot: %v", k, err)
				}
				fopts, freg := g.opts(), (*obs.Registry)(nil)
				if k == observedAt[g.label] {
					fopts, freg = observed()
				}
				fs, err := sim.New(fopts)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.RestoreBytes(data); err != nil {
					t.Fatalf("k=%d: restore: %v", k, err)
				}
				if got := fs.Cycle(); got != k {
					t.Fatalf("k=%d: restored simulator at cycle %d", k, got)
				}
				forked := fs.Run()
				if !reflect.DeepEqual(forked.Decisions, golden.Decisions) {
					t.Errorf("k=%d of %d: forked decision record diverged:\nforked: %+v\ngolden: %+v",
						k, total, forked.Decisions, golden.Decisions)
				}
				if !reflect.DeepEqual(forked, golden) {
					t.Errorf("k=%d of %d: forked run diverged from golden:\nforked: %+v\ngolden: %+v",
						k, total, forked, golden)
				}
				if freg != nil && metricsText(freg) != goldenMetrics {
					t.Errorf("k=%d of %d: observed fork's metrics diverged from golden", k, total)
				}
			}
		})
	}
}

// fidelityOpts is a mixed two-app run on a reduced machine, sized so the
// every-boundary property test stays fast while still exercising the PBS
// search state machine, kernel phase rotation, and the warmup boundary at
// a non-window-aligned cycle.
func fidelityOpts() sim.Options {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 2
	wl := workload.MustMake("BLK", "TRD")
	return sim.Options{
		Config:             cfg,
		Apps:               wl.Apps,
		Manager:            pbscore.NewPBS(metrics.ObjWS),
		TotalCycles:        20_000,
		WarmupCycles:       3_000,
		WindowCycles:       2_000,
		DesignatedSampling: true,
	}
}

// filterHistLines drops the histogram families from a registry text dump.
// Histograms accumulate one observation per executed window, and a forked
// run only executes the tail windows, so they are the one metric class
// that legitimately differs; every Set-based gauge and counter must match
// bit-for-bit.
func filterHistLines(text string) string {
	var keep []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "ebm_window_app_eb") ||
			strings.Contains(line, "ebm_dram_window_read_latency") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestSnapshotEveryWindowFidelity snapshots at every window boundary of
// a mixed two-app run and restores each snapshot into a fresh simulator;
// every fork must finish with a bit-identical Result, identical
// non-histogram metrics, and a journal exactly equal to the golden
// journal's post-fork tail. Run twice: with observers attached and
// without.
func TestSnapshotEveryWindowFidelity(t *testing.T) {
	type ckpt struct {
		window  uint64
		data    []byte
		journal int // golden journal length at the fork point
	}

	for _, observed := range []bool{false, true} {
		name := "bare"
		if observed {
			name = "observed"
		}
		t.Run(name, func(t *testing.T) {
			var reg *obs.Registry
			var journal *obs.Journal
			opts := fidelityOpts()
			if observed {
				reg = obs.NewRegistry()
				journal = obs.NewJournal()
				opts.Obs = &obs.Observer{Metrics: reg, Journal: journal}
			}
			var ckpts []ckpt
			opts.CkptSink = func(window uint64, s *sim.Simulator) error {
				data, err := s.SnapshotBytes()
				if err != nil {
					return err
				}
				jlen := 0
				if journal != nil {
					jlen = journal.Len()
				}
				ckpts = append(ckpts, ckpt{window: window, data: data, journal: jlen})
				return nil
			}
			s, err := sim.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			golden := s.Run()

			// The sink and observers must not perturb the engine.
			plain, err := sim.New(fidelityOpts())
			if err != nil {
				t.Fatal(err)
			}
			if r := plain.Run(); !reflect.DeepEqual(r, golden) {
				t.Fatalf("checkpoint sink perturbed the run:\nwith:    %+v\nwithout: %+v", r, golden)
			}

			wantWindows := fidelityOpts().TotalCycles / fidelityOpts().WindowCycles
			if uint64(len(ckpts)) != wantWindows {
				t.Fatalf("captured %d checkpoints, want one per window (%d)", len(ckpts), wantWindows)
			}
			var goldenMetrics string
			var goldenEvents []obs.Event
			if observed {
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Fatal(err)
				}
				goldenMetrics = filterHistLines(sb.String())
				goldenEvents = journal.Events()
			}

			for _, c := range ckpts {
				fopts := fidelityOpts()
				var freg *obs.Registry
				var fjournal *obs.Journal
				if observed {
					freg = obs.NewRegistry()
					fjournal = obs.NewJournal()
					fopts.Obs = &obs.Observer{Metrics: freg, Journal: fjournal}
				}
				fs, err := sim.New(fopts)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.RestoreBytes(c.data); err != nil {
					t.Fatalf("window %d: restore: %v", c.window, err)
				}
				forked := fs.Run()
				if !reflect.DeepEqual(forked, golden) {
					t.Errorf("window %d: forked Result diverged:\nforked: %+v\ngolden: %+v", c.window, forked, golden)
				}
				if !observed || c.window == wantWindows {
					// The run-end checkpoint forks into a zero-cycle run:
					// nothing executes, so no metrics or journal events are
					// published — only the Result contract applies there.
					continue
				}
				var sb strings.Builder
				if err := freg.WriteText(&sb); err != nil {
					t.Fatal(err)
				}
				if got := filterHistLines(sb.String()); got != goldenMetrics {
					t.Errorf("window %d: forked metrics diverged from golden", c.window)
				}
				tail := goldenEvents[c.journal:]
				got := fjournal.Events()
				if len(got) != len(tail) || (len(tail) > 0 && !reflect.DeepEqual(got, tail)) {
					t.Errorf("window %d: journal tail diverged: forked %d events, golden tail %d events",
						c.window, len(got), len(tail))
				}
			}
		})
	}
}

// TestSnapshotUnsupportedManager pins the degradation contract: a manager
// without checkpoint support yields a Snapshot error (callers fall back
// to cold execution), never a partial snapshot.
func TestSnapshotUnsupportedManager(t *testing.T) {
	opts := fidelityOpts()
	opts.Manager = noStateManager{}
	opts.TotalCycles = 4_000
	opts.WarmupCycles = 1_000
	s, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if _, err := s.SnapshotBytes(); err == nil {
		t.Fatal("snapshot of a non-Stater manager succeeded")
	}
}

// noStateManager is a Manager that deliberately lacks Stater.
type noStateManager struct{}

func (noStateManager) Name() string                     { return "nostate" }
func (noStateManager) Initial(numApps int) tlp.Decision { return tlp.NewDecision(numApps, 8) }
func (noStateManager) OnSample(s tlp.Sample) tlp.Decision {
	return tlp.NewDecision(len(s.Apps), 8)
}

// TestRestoreRejectsPreviousSnapshotVersion pins the staleness contract:
// a snapshot of the previous EngineState layout is refused (callers then
// run cold) while the same state at the current version restores.
func TestRestoreRejectsPreviousSnapshotVersion(t *testing.T) {
	opts := fidelityOpts()
	opts.TotalCycles = 4_000
	opts.WarmupCycles = 1_000
	s, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func(version int) error {
		st.Version = version
		fresh, err := sim.New(fidelityOpts())
		if err != nil {
			t.Fatal(err)
		}
		return fresh.Restore(st)
	}
	if err := restore(sim.SnapshotVersion - 1); err == nil {
		t.Fatalf("snapshot version %d restored under version %d", sim.SnapshotVersion-1, sim.SnapshotVersion)
	}
	if err := restore(sim.SnapshotVersion); err != nil {
		t.Fatalf("current-version snapshot: %v", err)
	}
}
