package sim_test

import (
	"runtime"
	"testing"

	"ebm/internal/config"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/sim"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

// BenchmarkCycleTick measures the per-cycle cost of the full Table I
// machine: b.N simulated core cycles, so ns/op is nanoseconds per
// simulated cycle and allocs/op is the cycle-path allocation rate the
// request pool and MSHR tables are meant to hold near zero. mem is
// table1Run's memory-bound GUPS_SCAN pair, where most cores sit
// fast-forwarded behind a saturated DRAM; compute is LIB_LUD on the same
// machine and scheme, where the cores keep issuing.
func BenchmarkCycleTick(b *testing.B) {
	for _, c := range cycleTickRuns() {
		b.Run(c.name, func(b *testing.B) {
			s := newCycleTick(b, c.rs, uint64(b.N))
			b.ReportAllocs()
			b.ResetTimer()
			s.Run()
		})
	}
}

// cycleTickRun is one of BenchmarkCycleTick's machines, which
// TestWorkGolden also runs.
type cycleTickRun struct {
	name string
	rs   spec.RunSpec
}

func cycleTickRuns() []cycleTickRun {
	compute := table1Run()
	compute.Apps = workload.MustMake("LIB", "LUD").Apps
	return []cycleTickRun{{"mem", table1Run()}, {"compute", compute}}
}

// newCycleTick builds rs's simulator for a run of cycles core cycles, all
// of them measured.
func newCycleTick(tb testing.TB, rs spec.RunSpec, cycles uint64) *sim.Simulator {
	tb.Helper()
	rs.TotalCycles, rs.WarmupCycles = cycles, 0
	opts, err := sim.FromSpec(rs)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sim.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// measureRunMallocs returns the heap allocation count of one Run of the
// given length (simulator construction excluded); wire installs the
// variant's manager and observer on the options first.
func measureRunMallocs(t *testing.T, cycles uint64, wire func(*testing.T, *sim.Options)) uint64 {
	t.Helper()
	wl := workload.MustMake("BLK", "BFS")
	opts := sim.Options{
		Config:       config.Default(),
		Apps:         wl.Apps,
		TotalCycles:  cycles,
		WindowCycles: 2_000,
	}
	wire(t, &opts)
	s, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.Run()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// fullObserver turns on every observability sink the engine feeds per
// window: the metrics registry, the event journal and phase polling.
func fullObserver(phase func() string) *obs.Observer {
	return &obs.Observer{Metrics: obs.NewRegistry(), Journal: obs.NewJournal(), PhaseFn: phase}
}

// TestCyclePathSteadyStateAllocs asserts the steady-state cycle path is
// allocation-free up to a small slack: the extra allocations of a 3x
// longer run over a shorter one (which cancels one-time warm-up growth of
// pools, queues and window buffers) must stay under a fraction of an
// object per simulated cycle. Before pooling, every L1 miss and DRAM
// reply allocated, putting this well above 1 per cycle. The bound holds
// with every per-window layer on too: a full observer, and a searching
// PBS manager under one.
func TestCyclePathSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not -short friendly")
	}
	for _, c := range []struct {
		name string
		wire func(*testing.T, *sim.Options)
	}{
		{"plain", func(*testing.T, *sim.Options) {}},
		{"observer", func(_ *testing.T, o *sim.Options) { o.Obs = fullObserver(func() string { return "stable" }) }},
		{"pbs-observer", func(t *testing.T, o *sim.Options) {
			pbs, err := spec.PBSManager(spec.PBS(metrics.ObjWS), len(o.Apps))
			if err != nil {
				t.Fatal(err)
			}
			o.Obs = fullObserver(pbs.Phase)
			o.Manager = pbs
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			short := measureRunMallocs(t, 20_000, c.wire)
			long := measureRunMallocs(t, 60_000, c.wire)
			var extra uint64
			if long > short {
				extra = long - short
			}
			perKCycle := float64(extra) / 40.0
			t.Logf("steady-state allocations: %.1f per 1000 cycles (short=%d long=%d)", perKCycle, short, long)
			if perKCycle > 50 {
				t.Errorf("cycle path allocates %.1f objects per 1000 cycles, want <= 50", perKCycle)
			}
		})
	}
}
