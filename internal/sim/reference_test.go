package sim_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"ebm/internal/config"
	"ebm/internal/dram"
	"ebm/internal/gpu"
	"ebm/internal/icnt"
	"ebm/internal/kernel"
	"ebm/internal/sim"
	"ebm/internal/spec"
	"ebm/internal/tlp"
	"ebm/internal/workload"
)

// run is one engine execution's observable output: the Result, every
// window sample the manager saw (copied, since the engine reuses the Apps
// buffer), and every core's, every memory partition's and both crossbar
// directions' final state. The partition states carry the counters no
// Result field reads (MSHRStalls, BusBusy). work is what the skips did,
// which sameRun does not compare.
type run struct {
	res           sim.Result
	samples       []tlp.Sample
	cores         []gpu.CoreState
	parts         []dram.PartitionState
	toMem, toCore icnt.NetworkState
	work          sim.SkipWork
}

// refRun is a run description plus the one engine knob the draws vary
// that a RunSpec does not carry: the decision delay (0 = the default).
type refRun struct {
	spec.RunSpec
	DecisionDelay uint64
}

// execute runs rs on the engine build returns. A non-nil sink is called
// at every window boundary, as the run's CkptSink; a non-nil snapshot is
// restored before the run. At every boundary the engine's derived
// indices must match its components.
func execute(t *testing.T, rs refRun, build func(sim.Options) (*sim.Simulator, error),
	sink func(uint64, *sim.Simulator) error, snapshot []byte) run {
	t.Helper()
	opts, err := sim.FromSpec(rs.RunSpec)
	if err != nil {
		t.Fatal(err)
	}
	opts.DecisionDelay = rs.DecisionDelay
	var out run
	opts.OnWindow = func(sm tlp.Sample) {
		sm.Apps = slices.Clone(sm.Apps)
		out.samples = append(out.samples, sm)
	}
	opts.CkptSink = func(w uint64, s *sim.Simulator) error {
		if err := s.IndexError(); err != nil {
			t.Errorf("window %d: %v", w, err)
		}
		if sink == nil {
			return nil
		}
		return sink(w, s)
	}
	s, err := build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if snapshot != nil {
		if err := s.RestoreBytes(snapshot); err != nil {
			t.Fatal(err)
		}
	}
	out.res = s.Run()
	out.cores = s.CoreStates()
	out.parts = s.PartitionStates()
	out.toMem, out.toCore = s.NetworkStates()
	out.work = s.SkipWork()
	return out
}

// sameRun reports the first difference between two runs, ignoring the
// FastForward counter (the one counter the skips are allowed to change).
func sameRun(got, want run) error {
	if !reflect.DeepEqual(got.res, want.res) {
		return fmt.Errorf("Result differs:\n got  %+v\n want %+v", got.res, want.res)
	}
	if len(got.samples) != len(want.samples) {
		return fmt.Errorf("%d window samples, want %d", len(got.samples), len(want.samples))
	}
	for i := range got.samples {
		if !reflect.DeepEqual(got.samples[i], want.samples[i]) {
			return fmt.Errorf("window %d sample differs:\n got  %+v\n want %+v", i, got.samples[i], want.samples[i])
		}
	}
	for ci := range want.cores {
		g, w := got.cores[ci], want.cores[ci]
		g.Stats.FastForward, w.Stats.FastForward = 0, 0
		if !reflect.DeepEqual(g.Stats, w.Stats) {
			return fmt.Errorf("core %d counters differ:\n got  %+v\n want %+v", ci, g.Stats, w.Stats)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("core %d state differs", ci)
		}
	}
	for pi := range want.parts {
		g, w := got.parts[pi], want.parts[pi]
		if g.MSHRStalls != w.MSHRStalls || g.BusBusy != w.BusBusy {
			return fmt.Errorf("partition %d MSHRStalls/BusBusy %+v/%+v, want %+v/%+v",
				pi, g.MSHRStalls, g.BusBusy, w.MSHRStalls, w.BusBusy)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("partition %d state differs", pi)
		}
	}
	if !reflect.DeepEqual(got.toMem, want.toMem) || !reflect.DeepEqual(got.toCore, want.toCore) {
		return fmt.Errorf("crossbar state differs")
	}
	return nil
}

// phased returns p with a kernel boundary every kernelInsts instructions,
// alternating with a compute-heavy phase (same working-set layout).
func phased(p kernel.Params, kernelInsts uint64) kernel.Params {
	alt := p
	alt.Name = ""
	alt.Rm = 0.05
	alt.ALUDelay = p.ALUDelay + 3
	alt.KernelInsts = 0
	alt.Phases = nil
	p.KernelInsts = kernelInsts
	p.Phases = []kernel.Params{alt}
	return p
}

// schemeFor builds a spec of the given kind; static and besttlp get a
// drawn combination.
func schemeFor(rng *rand.Rand, kind string, numApps int) spec.SchemeSpec {
	tlps := make([]int, numApps)
	for i := range tlps {
		tlps[i] = config.TLPLevels[rng.IntN(len(config.TLPLevels))]
	}
	switch kind {
	case spec.KindStatic:
		var bypass []bool
		if rng.IntN(3) == 0 {
			bypass = make([]bool, numApps)
			bypass[rng.IntN(numApps)] = true
		}
		return spec.Static(tlps, bypass)
	case spec.KindBestTLP:
		return spec.BestTLP(tlps)
	}
	sp, err := spec.ParseScheme(kind)
	if err != nil {
		panic(err)
	}
	return sp
}

// drawRun draws a machine, a workload and the run lengths for one scheme
// kind: 1-3 cores per app, 1-4 partitions, 4-64 L1 MSHRs, unaligned
// horizons, and sometimes a phased application.
func drawRun(rng *rand.Rand, kind string, short bool) refRun {
	names := kernel.Names()
	numApps := 2 + rng.IntN(2)
	apps := make([]string, numApps)
	for i := range apps {
		apps[i] = names[rng.IntN(len(names))]
	}
	wl := workload.MustMake(apps...)
	if rng.IntN(3) == 0 {
		i := rng.IntN(numApps)
		wl.Apps[i] = phased(wl.Apps[i], uint64(1000+rng.IntN(4000)))
	}
	cfg := config.Default()
	cfg.NumCores = numApps * (1 + rng.IntN(3))
	cfg.NumMemPartitions = 1 << rng.IntN(3)
	cfg.L1MSHRs = []int{4, 8, 16, 64}[rng.IntN(4)]
	window := uint64(1000 + 500*rng.IntN(5))
	windows := uint64(8 + rng.IntN(9))
	if short {
		windows = uint64(5 + rng.IntN(4))
	}
	total := window*windows + uint64(rng.IntN(int(window)))
	sch := schemeFor(rng, kind, numApps)
	rs := spec.RunSpec{
		Config:             cfg,
		Apps:               wl.Apps,
		Scheme:             sch,
		TotalCycles:        total,
		WarmupCycles:       uint64(rng.IntN(int(2 * window))),
		WindowCycles:       window,
		DesignatedSampling: rng.IntN(2) == 0,
		VictimTags:         spec.VictimTagsFor(sch),
	}
	return refRun{RunSpec: rs, DecisionDelay: []uint64{0, 1, 100}[rng.IntN(3)]}
}

// stalledPhased is the fixed case for the phase-switch wake: a phased
// application with a kernel boundary almost every window, on cores with
// 8 L1 MSHRs, so kernel rotations land while cores sit stalled at issue
// and a stalled warp's regenerated instruction must be seen at once.
func stalledPhased() spec.RunSpec {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 2
	cfg.L1MSHRs = 8
	wl := workload.MustMake("BLK", "TRD")
	wl.Apps[0] = phased(wl.Apps[0], 1500)
	wl.Apps[1] = phased(wl.Apps[1], 1000)
	return spec.RunSpec{
		Config:       cfg,
		Apps:         wl.Apps,
		Scheme:       spec.MaxTLP(),
		TotalCycles:  12_345,
		WarmupCycles: 1_000,
		WindowCycles: 1_000,
	}
}

// table1Run is a memory-bound pair on the full Table I machine, where
// most core cycles are stalled at issue behind a saturated DRAM.
func table1Run() spec.RunSpec {
	wl := workload.MustMake("GUPS", "SCAN")
	return spec.RunSpec{
		Config:             config.Default(),
		Apps:               wl.Apps,
		Scheme:             spec.Static([]int{4, 4}, nil),
		TotalCycles:        20_000,
		WarmupCycles:       2_000,
		WindowCycles:       2_500,
		DesignatedSampling: true,
	}
}

// withRefresh turns on all-bank refresh every trefi memory cycles (tRFC
// 130) and, when total is non-zero, sets the run's horizon.
func withRefresh(rs spec.RunSpec, total uint64, trefi int) spec.RunSpec {
	rs.Config.Timing.TREFI = trefi
	rs.Config.Timing.TRFC = 130
	if total != 0 {
		rs.TotalCycles = total
	}
	return rs
}

// TestFastForwardMatchesReference is the differential test of the
// engine's skips: per-core fast-forward of quiescent and issue-stalled
// cores (the awake-core set) and their wake by an out-queue pop only when
// it leaves the room an aborted issue needs, the injection pass's visit
// of queued cores only, the partition skip before NextTick (a stalled
// input-queue head's retries included, credited by Settle), and the
// crossbar polls before NextReady. On drawn machines, workloads and every
// registered scheme kind, the engine must match the always-tick reference
// on the Result, every window sample, every core's final state
// (FastForward aside), every partition's final state and both crossbars'
// state. A fork restored at a drawn window boundary must match the
// straight run too. On the memory-bound Table I case the skips must be
// seen to act, so the comparison cannot pass vacuously.
func TestFastForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2018))
	draws := 4
	if testing.Short() {
		draws = 2
	}
	type diffCase struct {
		name string
		rs   refRun
	}
	cases := []diffCase{{"phased-stall", refRun{RunSpec: stalledPhased()}}, {"table1-machine", refRun{RunSpec: table1Run()}}}
	for _, kind := range spec.Kinds() {
		for d := 0; d < draws; d++ {
			cases = append(cases, diffCase{fmt.Sprintf("%s/%d", kind, d), drawRun(rng, kind, testing.Short())})
		}
	}
	// Refresh runs on a wall-clock schedule, so a fork that loses the
	// partitions' next refresh time diverges; these two cases come after
	// the drawn ones so that no earlier fork point moves.
	cases = append(cases,
		diffCase{"table1-refresh", refRun{RunSpec: withRefresh(table1Run(), 40_000, 1900)}},
		diffCase{"phased-refresh", refRun{RunSpec: withRefresh(stalledPhased(), 0, 700)}})
	for _, c := range cases {
		forkAt := uint64(1 + rng.IntN(int(c.rs.TotalCycles/c.rs.WindowCycles)))
		t.Run(c.name, func(t *testing.T) {
			fast := execute(t, c.rs, sim.New, nil, nil)
			ref := execute(t, c.rs, sim.NewReference, nil, nil)
			if err := sameRun(fast, ref); err != nil {
				t.Fatalf("%v\nrun: %+v", err, c.rs)
			}
			var ff uint64
			for _, cs := range fast.cores {
				ff += cs.Stats.FastForward
			}
			if c.name == "phased-stall" && ff == 0 {
				t.Fatal("no core was fast-forwarded: the case does not exercise the skip")
			}
			if c.name == "table1-machine" {
				// The memory-bound case must show the skips acting:
				// stalled partitions skipped, and quiet cores both woken
				// and left asleep by out-queue pops.
				if fast.work.PartTicks >= ref.work.PartTicks {
					t.Fatalf("engine ticked partitions %d times, reference %d: no partition tick was skipped",
						fast.work.PartTicks, ref.work.PartTicks)
				}
				if fast.work.PopWakes == 0 || fast.work.PopSleeps == 0 {
					t.Fatalf("out-queue pops woke %d quiet cores and left %d asleep, want both > 0",
						fast.work.PopWakes, fast.work.PopSleeps)
				}
			}
			if err := forkMatches(t, c.rs, forkAt, fast); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// forkMatches snapshots rs at window forkAt, restores the snapshot into a
// fresh engine and reports the first difference between that fork and
// the straight run's tail.
func forkMatches(t *testing.T, rs refRun, forkAt uint64, straight run) error {
	t.Helper()
	var snap []byte
	execute(t, rs, sim.New, func(w uint64, s *sim.Simulator) error {
		if w != forkAt {
			return nil
		}
		var err error
		snap, err = s.SnapshotBytes()
		return err
	}, nil)
	if snap == nil {
		return fmt.Errorf("no snapshot at window %d", forkAt)
	}
	forked := execute(t, rs, sim.New, nil, snap)
	tail := straight
	tail.samples = straight.samples[forkAt:]
	if err := sameRun(forked, tail); err != nil {
		return fmt.Errorf("fork at window %d: %v", forkAt, err)
	}
	return nil
}

// FuzzFastForwardMatchesReference widens the differential test past its
// fixed draws: each seed draws one scheme kind, one run (machine,
// workload, horizons) and a fork window. The engine must match the
// always-tick reference, and a fork restored at that window must match
// the straight run's tail. Plain `go test` runs only the seed corpus;
// explore with
//
//	go test ./internal/sim -run '^$' -fuzz FuzzFastForwardMatchesReference -fuzztime 60s
func FuzzFastForwardMatchesReference(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3} {
		f.Add(seed)
	}
	kinds := spec.Kinds()
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 2018))
		rs := drawRun(rng, kinds[rng.IntN(len(kinds))], testing.Short())
		forkAt := uint64(1 + rng.IntN(int(rs.TotalCycles/rs.WindowCycles)))
		fast := execute(t, rs, sim.New, nil, nil)
		ref := execute(t, rs, sim.NewReference, nil, nil)
		if err := sameRun(fast, ref); err != nil {
			t.Fatalf("seed %d: %v\nrun: %+v", seed, err, rs)
		}
		if err := forkMatches(t, rs, forkAt, fast); err != nil {
			t.Fatalf("seed %d: %v\nrun: %+v", seed, err, rs)
		}
	})
}
