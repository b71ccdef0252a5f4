package sim

import (
	"math"
	"reflect"
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/tlp"
)

func smallCfg() config.GPU {
	c := config.Default()
	c.NumCores = 4
	c.NumMemPartitions = 4
	return c
}

func app(name string) kernel.Params {
	p, ok := kernel.ByName(name)
	if !ok {
		panic("unknown app " + name)
	}
	return p
}

func staticMgr(name string, tlps []int, bypass []bool) *tlp.Static {
	m, err := tlp.NewStatic(name, tlps, bypass)
	if err != nil {
		panic(err)
	}
	return m
}

func TestOptionValidation(t *testing.T) {
	cases := []Options{
		{},                   // no apps
		{Config: smallCfg()}, // still no apps
		{Config: smallCfg(), Apps: []kernel.Params{app("BLK")}, TotalCycles: 100, WarmupCycles: 200},
		{Config: smallCfg(), Apps: []kernel.Params{app("BLK"), app("TRD"), app("BFS")}}, // 4 cores not divisible by 3
		{Config: smallCfg(), Apps: []kernel.Params{app("BLK")}, CoresPerApp: []int{3}},  // wrong sum
		{Config: smallCfg(), Apps: []kernel.Params{app("BLK")}, CoresPerApp: []int{0}},
	}
	for i, o := range cases {
		if _, err := New(o); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
}

func TestSingleAppRunProducesSaneMetrics(t *testing.T) {
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("BLK")},
		TotalCycles:  30_000,
		WarmupCycles: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	a := r.Apps[0]
	if r.Cycles != 25_000 {
		t.Fatalf("measured cycles = %d", r.Cycles)
	}
	if a.IPC <= 0 || a.IPC > 2*float64(smallCfg().NumCores) {
		t.Fatalf("IPC %v out of physical range", a.IPC)
	}
	if a.BW <= 0 || a.BW > 1 {
		t.Fatalf("BW %v outside (0,1]", a.BW)
	}
	if a.L1MR < 0 || a.L1MR > 1 || a.L2MR < 0 || a.L2MR > 1 {
		t.Fatalf("miss rates out of range: %v %v", a.L1MR, a.L2MR)
	}
	if math.Abs(a.CMR-a.L1MR*a.L2MR) > 1e-9 {
		t.Fatal("CMR != L1MR*L2MR")
	}
	if a.EB <= 0 {
		t.Fatalf("EB = %v", a.EB)
	}
	if a.Insts == 0 || r.Windows == 0 {
		t.Fatal("no instructions or windows measured")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		s, err := New(Options{
			Config:       smallCfg(),
			Apps:         []kernel.Params{app("BFS"), app("TRD")},
			TotalCycles:  20_000,
			WarmupCycles: 2_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	for i := range a.Apps {
		if a.Apps[i].Insts != b.Apps[i].Insts {
			t.Fatalf("app %d: %d vs %d instructions across identical runs",
				i, a.Apps[i].Insts, b.Apps[i].Insts)
		}
		if a.Apps[i].BW != b.Apps[i].BW {
			t.Fatalf("app %d: BW differs across identical runs", i)
		}
	}
}

func TestTwoAppsShareMemorySystem(t *testing.T) {
	// A streaming bully must depress a co-runner's bandwidth vs alone.
	aloneOpts := Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("TRD")},
		CoresPerApp:  []int{2},
		TotalCycles:  40_000,
		WarmupCycles: 5_000,
	}
	aloneOpts.Config.NumCores = 2
	s, err := New(aloneOpts)
	if err != nil {
		t.Fatal(err)
	}
	alone := s.Run().Apps[0]

	s2, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("TRD"), app("RED")},
		TotalCycles:  40_000,
		WarmupCycles: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	shared := s2.Run().Apps[0]
	if shared.IPC >= alone.IPC {
		t.Fatalf("no interference: alone IPC %v, shared IPC %v", alone.IPC, shared.IPC)
	}
}

func TestTLPLimitChangesBehaviour(t *testing.T) {
	run := func(tl int) Result {
		s, err := New(Options{
			Config:       smallCfg(),
			Apps:         []kernel.Params{app("JPEG")},
			Manager:      staticMgr("s", []int{tl}, nil),
			TotalCycles:  30_000,
			WarmupCycles: 5_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	low, high := run(1), run(16)
	if high.Apps[0].IPC <= low.Apps[0].IPC {
		t.Fatalf("TLP 16 IPC %v not above TLP 1 IPC %v for a latency-bound app",
			high.Apps[0].IPC, low.Apps[0].IPC)
	}
	if low.Apps[0].FinalTLP != 1 || high.Apps[0].FinalTLP != 16 {
		t.Fatal("FinalTLP not reported")
	}
	if math.Abs(low.Apps[0].AvgTLP-1) > 0.01 {
		t.Fatalf("AvgTLP = %v, want 1", low.Apps[0].AvgTLP)
	}
}

// scriptManager starts at initial and returns script[k] from its k-th
// OnSample (the last entry once the script runs out). It records the
// TLPs in effect during every window it samples.
type scriptManager struct {
	initial []int
	script  [][]int
	seen    [][]int
}

func (m *scriptManager) Name() string             { return "script" }
func (m *scriptManager) Initial(int) tlp.Decision { return tlp.Decision{TLP: m.initial} }
func (m *scriptManager) OnSample(s tlp.Sample) tlp.Decision {
	in := make([]int, len(s.Apps))
	for i, a := range s.Apps {
		in[i] = a.TLP
	}
	m.seen = append(m.seen, in)
	return tlp.Decision{TLP: m.script[min(len(m.seen), len(m.script))-1]}
}

// The engine is the one layer that checks a manager's decisions: a
// wrong-shaped Initial fails New, a wrong-shaped OnSample decision keeps
// the current combination (journaled as one EvPolicyFault per bad
// window), and every TLP is clamped onto a hardware level. Each case runs
// six 2,000-cycle windows of a two-application workload, once bare and
// once with a journal, and both runs must apply the same TLPs.
func TestManagerDecisionsApplied(t *testing.T) {
	for _, c := range []struct {
		name      string
		initial   []int
		script    [][]int
		seen      [][]int  // TLPs in effect during windows 1..6
		faults    []uint64 // cycles of the journaled EvPolicyFaults
		newFailed bool
	}{
		{name: "applied", initial: []int{24, 24}, script: [][]int{{24, 24}, {2, 2}},
			seen: [][]int{{24, 24}, {24, 24}, {2, 2}, {2, 2}, {2, 2}, {2, 2}}},
		{name: "wrong-length-keeps-prior", initial: []int{8, 4}, script: [][]int{{2, 1}, {4}, {1, 2, 4}, {}, {6, 8}},
			seen:   [][]int{{8, 4}, {2, 1}, {2, 1}, {2, 1}, {2, 1}, {6, 8}},
			faults: []uint64{4_000, 6_000, 8_000}},
		{name: "clamped-to-levels", initial: []int{24, 24}, script: [][]int{{0, 99}, {-3, 5}},
			seen: [][]int{{24, 24}, {1, 24}, {1, 4}, {1, 4}, {1, 4}, {1, 4}}},
		{name: "wrong-shaped-initial", initial: []int{8}, newFailed: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, journal := range []*obs.Journal{nil, obs.NewJournal()} {
				m := &scriptManager{initial: c.initial, script: c.script}
				opts := Options{
					Config:       smallCfg(),
					Apps:         []kernel.Params{app("BLK"), app("TRD")},
					Manager:      m,
					TotalCycles:  12_000,
					WarmupCycles: 1_000,
					WindowCycles: 2_000,
				}
				if journal != nil {
					opts.Obs = &obs.Observer{Journal: journal}
				}
				s, err := New(opts)
				if c.newFailed {
					if err == nil {
						t.Fatal("New accepted a wrong-shaped initial decision")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				r := s.Run()
				if !reflect.DeepEqual(m.seen, c.seen) {
					t.Fatalf("journal=%v: TLPs in effect per window %v, want %v", journal != nil, m.seen, c.seen)
				}
				last := c.seen[len(c.seen)-1]
				for i, a := range r.Apps {
					if a.FinalTLP != last[i] {
						t.Errorf("app %d final TLP %d, want %d", i, a.FinalTLP, last[i])
					}
					// Average TLP lies between the lowest and highest TLP
					// applied, strictly so when the TLP changed.
					lo, hi := last[i], last[i]
					for _, w := range c.seen {
						lo, hi = min(lo, w[i]), max(hi, w[i])
					}
					if a.AvgTLP < float64(lo) || a.AvgTLP > float64(hi) ||
						(lo < hi && (a.AvgTLP == float64(lo) || a.AvgTLP == float64(hi))) {
						t.Errorf("app %d AvgTLP %v outside [%d, %d]", i, a.AvgTLP, lo, hi)
					}
				}
				if journal == nil {
					continue
				}
				var faults []uint64
				for _, e := range journal.Events() {
					if e.Kind == obs.EvPolicyFault {
						faults = append(faults, e.Cycle)
					}
				}
				if !reflect.DeepEqual(faults, c.faults) {
					t.Errorf("policy faults journaled at cycles %v, want %v", faults, c.faults)
				}
			}
		})
	}
}

func TestOnWindowHookAndSampleShape(t *testing.T) {
	var samples []tlp.Sample
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("BLK"), app("BFS")},
		TotalCycles:  20_000,
		WarmupCycles: 1_000,
		WindowCycles: 2_000,
		OnWindow:     func(sm tlp.Sample) { samples = append(samples, sm) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(samples) != 10 {
		t.Fatalf("%d windows, want 10", len(samples))
	}
	for _, sm := range samples {
		if len(sm.Apps) != 2 {
			t.Fatal("sample app count")
		}
		for i, a := range sm.Apps {
			if a.App != i {
				t.Fatal("app index mismatch")
			}
			if a.Cycles != 2_000 {
				t.Fatalf("window cycles = %d", a.Cycles)
			}
			if a.L1MR < 0 || a.L1MR > 1 || a.L2MR < 0 || a.L2MR > 1 {
				t.Fatal("sample miss rates out of range")
			}
			if a.EB < 0 {
				t.Fatal("negative EB")
			}
		}
	}
}

func TestDesignatedVsAggregateSampling(t *testing.T) {
	collect := func(designated bool) []tlp.Sample {
		var out []tlp.Sample
		s, err := New(Options{
			Config:             smallCfg(),
			Apps:               []kernel.Params{app("TRD"), app("BLK")},
			TotalCycles:        30_000,
			WarmupCycles:       1_000,
			WindowCycles:       5_000,
			DesignatedSampling: designated,
			OnWindow:           func(sm tlp.Sample) { out = append(out, sm) },
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return out
	}
	des := collect(true)
	agg := collect(false)
	// The designated single-partition BW estimate should track the
	// aggregate within a loose factor (uniform interleaving).
	d := des[len(des)-1].Apps[0].BW
	a := agg[len(agg)-1].Apps[0].BW
	if d == 0 || a == 0 {
		t.Fatal("no bandwidth sampled")
	}
	if r := d / a; r < 0.5 || r > 2 {
		t.Fatalf("designated BW %v vs aggregate %v (ratio %v)", d, a, r)
	}
}

func TestKernelRelaunchDetection(t *testing.T) {
	p := app("BLK")
	p.KernelInsts = 10_000 // tiny kernels: several relaunches
	var relaunches int
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{p},
		TotalCycles:  40_000,
		WarmupCycles: 1_000,
		WindowCycles: 2_000,
		OnWindow: func(sm tlp.Sample) {
			if sm.Apps[0].KernelRelaunched {
				relaunches++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if relaunches == 0 {
		t.Fatal("no kernel relaunches detected")
	}
	if r.Apps[0].Kernels == 0 {
		t.Fatal("kernel count not measured")
	}
}

func TestUnequalCorePartitioning(t *testing.T) {
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("JPEG"), app("JPEG")},
		CoresPerApp:  []int{1, 3},
		TotalCycles:  30_000,
		WarmupCycles: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Apps[1].IPC <= r.Apps[0].IPC {
		t.Fatalf("3-core copy (%v) not faster than 1-core copy (%v)",
			r.Apps[1].IPC, r.Apps[0].IPC)
	}
}

func TestL2WayPartitionOption(t *testing.T) {
	mask := [][]bool{make([]bool, 16), make([]bool, 16)}
	for i := 0; i < 16; i++ {
		mask[0][i] = i < 8
		mask[1][i] = i >= 8
	}
	s, err := New(Options{
		Config:         smallCfg(),
		Apps:           []kernel.Params{app("CFD"), app("SC")},
		TotalCycles:    20_000,
		WarmupCycles:   2_000,
		L2WayPartition: mask,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Apps[0].Insts == 0 || r.Apps[1].Insts == 0 {
		t.Fatal("partitioned L2 stalled the machine")
	}
}

func TestBypassDecisionApplied(t *testing.T) {
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("JPEG")},
		Manager:      staticMgr("byp", []int{8}, []bool{true}),
		TotalCycles:  20_000,
		WarmupCycles: 2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Apps[0].L1MR != 1 {
		t.Fatalf("bypassed app L1MR = %v, want 1", r.Apps[0].L1MR)
	}
}

func TestResultVectors(t *testing.T) {
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("BLK"), app("TRD")},
		TotalCycles:  15_000,
		WarmupCycles: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if len(r.IPCs()) != 2 || len(r.EBs()) != 2 {
		t.Fatal("vector lengths")
	}
	if r.IPCs()[0] != r.Apps[0].IPC || r.EBs()[1] != r.Apps[1].EB {
		t.Fatal("vector contents")
	}
	sum := r.Apps[0].BW + r.Apps[1].BW
	if math.Abs(sum-r.TotalBW) > 1e-9 {
		t.Fatal("TotalBW != sum of per-app BW")
	}
}

func TestWarmupZero(t *testing.T) {
	s, err := New(Options{
		Config:      smallCfg(),
		Apps:        []kernel.Params{app("BLK")},
		TotalCycles: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Cycles != 10_000 || r.Apps[0].Insts == 0 {
		t.Fatal("zero-warmup run broken")
	}
}

func TestVictimTagTelemetry(t *testing.T) {
	// A thrashing cache-sensitive app must show a non-zero VTA rate when
	// the detector is enabled, and zero when disabled.
	p := app("LUD") // small per-warp working set; thrashes at high TLP
	collect := func(victimTags int) float64 {
		var last float64
		s, err := New(Options{
			Config:       smallCfg(),
			Apps:         []kernel.Params{p},
			Manager:      staticMgr("s", []int{24}, nil),
			TotalCycles:  30_000,
			WarmupCycles: 2_000,
			WindowCycles: 5_000,
			VictimTags:   victimTags,
			OnWindow:     func(sm tlp.Sample) { last = sm.Apps[0].VTARate },
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return last
	}
	if v := collect(0); v != 0 {
		t.Fatalf("VTARate %v with the detector disabled", v)
	}
	if v := collect(64); v <= 0 {
		t.Fatalf("VTARate %v for a thrashing app with the detector on", v)
	}
}

func TestCCWSEndToEnd(t *testing.T) {
	// CCWS must throttle a thrashing app below maxTLP.
	p := app("LUD")
	s, err := New(Options{
		Config:             smallCfg(),
		Apps:               []kernel.Params{p},
		Manager:            tlp.NewCCWS(),
		TotalCycles:        60_000,
		WarmupCycles:       5_000,
		WindowCycles:       2_000,
		VictimTags:         1024,
		DesignatedSampling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Apps[0].FinalTLP >= 24 {
		t.Fatalf("CCWS left a thrashing app at TLP %d", r.Apps[0].FinalTLP)
	}
}

func TestKernelPhasesRotate(t *testing.T) {
	base := app("BLK")
	base.KernelInsts = 20_000
	phase := base
	phase.Name = ""
	phase.Rm = 0.05 // compute-heavy alternate phase
	phase.KernelInsts = 0
	phase.Phases = nil
	base.Phases = []kernel.Params{phase}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}

	// Measure windowed IPC over time: the compute-heavy phase should push
	// IPC up markedly after the first relaunch.
	var ipcs []float64
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{base},
		TotalCycles:  60_000,
		WarmupCycles: 1_000,
		WindowCycles: 2_000,
		OnWindow:     func(sm tlp.Sample) { ipcs = append(ipcs, sm.Apps[0].IPC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Apps[0].Kernels == 0 {
		t.Fatal("no kernel boundaries crossed")
	}
	lo, hi := ipcs[0], ipcs[0]
	for _, v := range ipcs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 1.5*lo {
		t.Fatalf("phases did not change behaviour: IPC range [%v, %v]", lo, hi)
	}
}

func TestPhaseValidation(t *testing.T) {
	base := app("BLK")
	bad := base
	bad.PrivateWS = base.PrivateWS * 2 // layout change: must be rejected
	bad.Phases = nil
	base.Phases = []kernel.Params{bad}
	if err := base.Validate(); err == nil {
		t.Fatal("phase with a different working set accepted")
	}
}

func TestSampleEBConsistency(t *testing.T) {
	// Windowed EB must equal BW / max(CMR, floor) for every sample.
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("BFS"), app("TRD")},
		TotalCycles:  30_000,
		WarmupCycles: 1_000,
		WindowCycles: 2_000,
		OnWindow: func(sm tlp.Sample) {
			for _, a := range sm.Apps {
				cmr := a.CMR
				if cmr < cmrFloor {
					cmr = cmrFloor
				}
				want := a.BW / cmr
				if diff := a.EB - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("EB %v != BW/CMR %v", a.EB, want)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
}

func TestBackpressureStressConserves(t *testing.T) {
	// A bandwidth-saturating pair on a tiny machine: the run must neither
	// deadlock nor lose work, and per-app DRAM bytes must stay plausible.
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("GUPS"), app("TRD")},
		TotalCycles:  40_000,
		WarmupCycles: 2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	for _, a := range r.Apps {
		if a.Insts == 0 {
			t.Fatalf("%s starved completely under backpressure", a.Name)
		}
		if a.BW < 0 || a.BW > 1 {
			t.Fatalf("%s BW %v out of range", a.Name, a.BW)
		}
	}
	if r.TotalBW > 1.0001 {
		t.Fatalf("total BW %v exceeds the physical peak", r.TotalBW)
	}
}

func TestRefreshOptionEndToEnd(t *testing.T) {
	run := func(trefi, trfc int) float64 {
		cfg := smallCfg()
		cfg.Timing.TREFI = trefi
		cfg.Timing.TRFC = trfc
		s, err := New(Options{
			Config:       cfg,
			Apps:         []kernel.Params{app("TRD")},
			Manager:      staticMgr("s", []int{8}, nil),
			TotalCycles:  40_000,
			WarmupCycles: 5_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run().Apps[0].BW
	}
	if with, without := run(1900, 130), run(0, 0); with >= without {
		t.Fatalf("refresh did not reduce attained bandwidth: %v vs %v", with, without)
	}
}
