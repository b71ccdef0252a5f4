package sim_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ebm/internal/obs"
	"ebm/internal/sim"
)

// TestCyclesSimulatedCountsFullRun pins the work counter's contract: a
// cold run credits exactly its TotalCycles, and a run forked from a
// restored snapshot credits only the tail it actually executes — the
// replayed prefix was paid for by the run that produced the snapshot.
func TestCyclesSimulatedCountsFullRun(t *testing.T) {
	opts := fidelityOpts() // 20_000 cycles, 2_000-cycle windows

	s, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := sim.CyclesSimulated()
	s.Run()
	if d := sim.CyclesSimulated() - before; d != opts.TotalCycles {
		t.Fatalf("cold run credited %d cycles, want %d", d, opts.TotalCycles)
	}

	// Unaligned total: the partial final window must be credited too.
	odd := opts
	odd.TotalCycles = 20_999
	s, err = sim.New(odd)
	if err != nil {
		t.Fatal(err)
	}
	before = sim.CyclesSimulated()
	s.Run()
	if d := sim.CyclesSimulated() - before; d != odd.TotalCycles {
		t.Fatalf("unaligned run credited %d cycles, want %d", d, odd.TotalCycles)
	}
}

func TestCyclesSimulatedCountsForkedTailOnly(t *testing.T) {
	opts := fidelityOpts()
	const prefix = 8_000 // a window boundary past the 3_000-cycle warmup

	short := opts
	short.TotalCycles = prefix
	ps, err := sim.New(short)
	if err != nil {
		t.Fatal(err)
	}
	ps.Run()
	data, err := ps.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	fs, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.RestoreBytes(data); err != nil {
		t.Fatal(err)
	}
	before := sim.CyclesSimulated()
	fs.Run()
	if d := sim.CyclesSimulated() - before; d != opts.TotalCycles-prefix {
		t.Fatalf("forked run credited %d cycles, want the %d-cycle tail",
			d, opts.TotalCycles-prefix)
	}
}

// TestInstrumentWork pins the registry mirror: the counter is seeded with
// the work already done in this process and tracks new work.
func TestInstrumentWork(t *testing.T) {
	reg := obs.NewRegistry()
	c := sim.InstrumentWork(reg)
	if got, want := c.Value(), sim.CyclesSimulated(); got != want {
		t.Fatalf("counter seeded with %d, want %d", got, want)
	}
	s, err := sim.New(fidelityOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got, want := c.Value(), sim.CyclesSimulated(); got != want {
		t.Fatalf("counter at %d after a run, want %d", got, want)
	}
}

// workGolden holds the engine work of BenchmarkCycleTick's runs at
// workCycles cycles, by run name.
const (
	workGolden = "testdata/work.golden"
	workCycles = 100_000
)

// TestWorkGolden pins the engine work of BenchmarkCycleTick's mem and
// compute runs: every core Tick, partition Tick, read-path L2 access
// and crossbar Pop they make. The counts are deterministic, so a change
// that claims to skip work shows here exactly which calls it saved, and
// a change that should not move them cannot move them unseen. A change
// that moves them on purpose updates the golden and reports the delta.
func TestWorkGolden(t *testing.T) {
	raw, err := os.ReadFile(workGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]sim.Work
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", workGolden, err)
	}
	got := map[string]sim.Work{}
	for _, c := range cycleTickRuns() {
		s := newCycleTick(t, c.rs, workCycles)
		s.Run()
		got[c.name] = s.Work()
	}
	if reflect.DeepEqual(got, golden) {
		return
	}
	for _, c := range cycleTickRuns() {
		g, w := reflect.ValueOf(got[c.name]), reflect.ValueOf(golden[c.name])
		for i := 0; i < g.NumField(); i++ {
			if gv, wv := g.Field(i).Uint(), w.Field(i).Uint(); gv != wv {
				t.Errorf("%s: %s = %d, golden %d (%+d)", c.name, g.Type().Field(i).Name, gv, wv, int64(gv-wv))
			}
		}
	}
	now, _ := json.MarshalIndent(got, "", "  ")
	t.Fatalf("engine work moved; if on purpose, write this to %s and report the delta:\n%s", workGolden, now)
}
