package main

import (
	"context"
	"math"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"ebm/bench/internal/benchfile"
	"ebm/internal/runner"
)

// testScale shrinks every run so a workload sets up and passes in well
// under a second (smaller still under -short).
func testScale() scale {
	sc := scale{
		engineCycles: 6_000, engineWarmup: 1_000, engineWindow: 1_000,
		sweepCycles: 10_000, sweepWarmup: 1_000,
		replayGrid: 3_000, replayEval: 4_000, replayWarmup: 500, replayWindow: 500,
	}
	if testing.Short() {
		sc.engineCycles, sc.replayGrid, sc.replayEval = 3_000, 1_500, 2_000
	}
	return sc
}

func loadBenchFile(t *testing.T) *benchfile.File {
	t.Helper()
	f, err := benchfile.Load("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func runWorkload(t *testing.T, name string, seed int64, trace bool) *report {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	seconds := 0.3
	if trace {
		seconds = 1 // enough CPU-profile samples to fold
	}
	rep, err := measure(context.Background(), options{
		w: w, seed: seed, seconds: seconds, trace: trace,
		workdir: t.TempDir(), tracedir: t.TempDir(), sc: testScale(),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// Every workload emits exactly the declared metrics with their units, in
// both modes, and every check passes.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	f := loadBenchFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := runWorkload(t, w.name, 1, trace)
			declared := f.EndToEnd
			if trace {
				declared = f.PerLayer
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				got[m.name] = m.unit
				if m.n < 1 {
					t.Errorf("%s: %s has no samples", w.name, m.name)
				}
			}
			if len(got) != len(rep.metrics) || len(got) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(rep.metrics), len(declared))
			}
			for _, d := range declared {
				if u, ok := got[d.Name]; !ok || u != d.Unit {
					t.Errorf("%s trace=%v: %s emitted with unit %q, declared %q", w.name, trace, d.Name, u, d.Unit)
				}
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d checks failed", w.name, trace, rep.failed, rep.attempted)
			}
			if !trace {
				for _, m := range rep.metrics {
					if !(m.value > 0) {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.name, m.value)
					}
				}
				continue
			}
			sum := 0.0
			for _, l := range cpuLayers {
				for _, m := range rep.metrics {
					if m.name == l+".cpu_share" {
						sum += m.value
					}
				}
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("%s: CPU shares sum to %v, want 1 ± 0.01", w.name, sum)
			}
		}
	}
}

// Two runs of one seed reproduce the same results; within a run every
// pass already had to match the first (a failed check otherwise).
func TestResultDigestStable(t *testing.T) {
	for _, w := range workloads {
		a, b := runWorkload(t, w.name, 3, false), runWorkload(t, w.name, 3, false)
		if a.failed != 0 || len(a.passes.wall) < 2 {
			t.Errorf("%s: %d failed checks over %d passes", w.name, a.failed, len(a.passes.wall))
		}
		if a.digest != b.digest {
			t.Errorf("%s: digest %s then %s for one seed", w.name, a.digest, b.digest)
		}
	}
}

func TestSeedDrawsAreDeterministicAndDistinct(t *testing.T) {
	pool := runner.New(runtime.NumCPU())
	defer pool.Close()
	draw := func(w workloadDef, seed int64) []string {
		b, err := w.build(context.Background(), env{
			seed: seed, dir: t.TempDir(), pool: pool, workers: runtime.NumCPU(), sc: testScale(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		return b.inputs()
	}
	for _, w := range workloads {
		one, again, two := draw(w, 1), draw(w, 1), draw(w, 2)
		if !reflect.DeepEqual(one, again) {
			t.Errorf("%s: seed 1 drew %v, then %v", w.name, one, again)
		}
		if reflect.DeepEqual(one, two) {
			t.Errorf("%s: seeds 1 and 2 drew the same inputs %v", w.name, one)
		}
	}
}

// BENCHMARK.json stays within the benchmark contract and matches the
// metrics and workloads this command implements.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := loadBenchFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 || len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(f.EndToEnd), len(f.PerLayer))
	}
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Errorf("%d workloads, want 2-8", len(f.Workloads))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1-60", f.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, m := range append(append([]benchfile.Metric(nil), f.EndToEnd...), f.PerLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no end-to-end setup_s in seconds, lower better")
	}
	for i, w := range f.Workloads {
		check(w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command implements a different list", i, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, tc := range []struct {
		declared []benchfile.Metric
		impl     []metricDef
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(tc.declared) != len(tc.impl) {
			t.Errorf("%d metrics declared, %d implemented", len(tc.declared), len(tc.impl))
			continue
		}
		for i, d := range tc.declared {
			if d.Name != tc.impl[i].name || d.Unit != tc.impl[i].unit {
				t.Errorf("metric %d: declared %s [%s], implemented %s [%s]", i, d.Name, d.Unit, tc.impl[i].name, tc.impl[i].unit)
			}
		}
	}
}
