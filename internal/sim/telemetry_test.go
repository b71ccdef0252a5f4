package sim

import (
	"math"
	"strings"
	"testing"

	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/tlp"
)

func TestRateIdleWindowConvention(t *testing.T) {
	if got := rate(0, 0); got != 1 {
		t.Fatalf("rate(0,0) = %v, want 1 (idle window)", got)
	}
	if got := rate(5, 10); got != 0.5 {
		t.Fatalf("rate(5,10) = %v", got)
	}
	if got := rate(0, 10); got != 0 {
		t.Fatalf("rate(0,10) = %v", got)
	}
}

func TestEBAppliesCMRFloor(t *testing.T) {
	if got := eb(0.5, 0.5); got != 1 {
		t.Fatalf("eb(0.5,0.5) = %v", got)
	}
	// Below the floor the caches are modeled as amplifying at most 100x.
	if got, want := eb(0.5, 1e-6), 0.5/cmrFloor; got != want {
		t.Fatalf("eb below floor = %v, want %v", got, want)
	}
	if got, want := eb(0.5, 0), 0.5/cmrFloor; got != want {
		t.Fatalf("eb at zero CMR = %v, want %v", got, want)
	}
	// At exactly the floor no clamping happens.
	if got, want := eb(0.3, cmrFloor), 0.3/cmrFloor; got != want {
		t.Fatalf("eb at floor = %v, want %v", got, want)
	}
}

// pokeTelemetry plants distinct L1/L2 counter values on the designated
// units (core appCores[app][0], partition 0) versus the rest of the
// machine, so designated and aggregate sampling provably disagree.
func pokeTelemetry(s *Simulator) {
	// App 0, designated core: 10 accesses, 5 misses (L1MR 0.5).
	dc := s.cores[s.appCores[0][0]]
	dc.L1.Stats[0].Accesses += 10
	dc.L1.Stats[0].Misses += 5
	// App 0, second core: 10 accesses, 0 misses (aggregate L1MR 0.25).
	oc := s.cores[s.appCores[0][1]]
	oc.L1.Stats[0].Accesses += 10
	// Designated partition 0: L2MR 1.0 for app 0.
	s.partitions[0].L2.Stats[0].Accesses += 4
	s.partitions[0].L2.Stats[0].Misses += 4
	// Partition 1: L2MR 0 traffic only (aggregate L2MR 0.5).
	s.partitions[1].L2.Stats[0].Accesses += 4
	// Bandwidth: only partition 1 moved data, so designated sampling
	// (partition 0 only) sees zero BW while the aggregate does not.
	s.partitions[1].Apps[0].BWBytes += 1 << 14
}

func newTelemetrySim(t *testing.T, designated bool) *Simulator {
	t.Helper()
	s, err := New(Options{
		Config:             smallCfg(),
		Apps:               []kernel.Params{app("BLK"), app("TRD")},
		TotalCycles:        10_000,
		DesignatedSampling: designated,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildSampleDesignatedSampling(t *testing.T) {
	s := newTelemetrySim(t, true)
	pokeTelemetry(s)
	sm := s.buildSample(s.opts.WindowCycles)
	a := sm.Apps[0]
	if a.L1MR != 0.5 {
		t.Fatalf("designated L1MR = %v, want 0.5 (core %d only)", a.L1MR, s.appCores[0][0])
	}
	if a.L2MR != 1.0 {
		t.Fatalf("designated L2MR = %v, want 1.0 (partition 0 only)", a.L2MR)
	}
	if a.BW != 0 {
		t.Fatalf("designated BW = %v, want 0 (traffic was on partition 1)", a.BW)
	}
	// App 1 saw no traffic at all: the idle-window convention pins its
	// miss rates (and therefore CMR) to 1 with zero bandwidth.
	b := sm.Apps[1]
	if b.L1MR != 1 || b.L2MR != 1 || b.CMR != 1 || b.BW != 0 || b.EB != 0 {
		t.Fatalf("idle app sample = %+v, want all-idle convention", b)
	}
}

func TestBuildSampleAggregateSampling(t *testing.T) {
	s := newTelemetrySim(t, false)
	pokeTelemetry(s)
	sm := s.buildSample(s.opts.WindowCycles)
	a := sm.Apps[0]
	if a.L1MR != 0.25 {
		t.Fatalf("aggregate L1MR = %v, want 0.25 (5 misses / 20 accesses)", a.L1MR)
	}
	if a.L2MR != 0.5 {
		t.Fatalf("aggregate L2MR = %v, want 0.5 (4 misses / 8 accesses)", a.L2MR)
	}
	if a.BW <= 0 {
		t.Fatalf("aggregate BW = %v, want > 0 (partition 1 traffic counted)", a.BW)
	}
	if want := a.L1MR * a.L2MR; a.CMR != want {
		t.Fatalf("CMR = %v, want %v", a.CMR, want)
	}
	if want := eb(a.BW, a.CMR); a.EB != want {
		t.Fatalf("EB = %v, want %v", a.EB, want)
	}
}

// TestPartialFinalWindowDropped pins the bugfix contract: when TotalCycles
// is not a multiple of WindowCycles, the trailing partial window is
// consistently dropped everywhere — Result.Windows, the OnWindow hook, and
// the journal's window events all agree.
func TestPartialFinalWindowDropped(t *testing.T) {
	j := obs.NewJournal()
	hookCalls := 0
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("BLK"), app("TRD")},
		TotalCycles:  11_000, // 4 full windows of 2500 + 1000 leftover cycles
		WindowCycles: 2_500,
		OnWindow:     func(tlp.Sample) { hookCalls++ },
		Obs:          &obs.Observer{Journal: j},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Windows != 4 {
		t.Fatalf("Result.Windows = %d, want 4", res.Windows)
	}
	if hookCalls != 4 {
		t.Fatalf("OnWindow calls = %d, want 4", hookCalls)
	}
	winEvents := 0
	var lastWinCycle uint64
	for _, e := range j.Events() {
		if e.Kind == obs.EvWindow {
			winEvents++
			lastWinCycle = e.Cycle
		}
	}
	if winEvents != 4 {
		t.Fatalf("journal EvWindow count = %d, want 4", winEvents)
	}
	if lastWinCycle != 10_000 {
		t.Fatalf("last journal window at cycle %d, want 10000 (partial window dropped)", lastWinCycle)
	}
}

// TestObserverIntegration runs the engine with every sink attached and
// checks the registry and journal contents end to end, including a
// mid-run text scrape (what an HTTP client would read).
func TestObserverIntegration(t *testing.T) {
	reg := obs.NewRegistry()
	j := obs.NewJournal()
	var midRun strings.Builder
	var s *Simulator
	// Each partition's data-bus busy cycles at the last two window
	// boundaries: the last window's utilization gauge is their difference.
	var prevBusy, lastBusy []uint64
	s, err := New(Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("BLK"), app("TRD")},
		TotalCycles:  20_000,
		WindowCycles: 2_500,
		// Scrape mid-run exactly as the HTTP handler would, from a window
		// hook (OnWindow fires while the run is still in flight).
		OnWindow: func(tlp.Sample) {
			if midRun.Len() == 0 {
				if err := reg.WriteText(&midRun); err != nil {
					t.Errorf("mid-run scrape: %v", err)
				}
			}
			prevBusy = lastBusy
			lastBusy = nil
			for _, p := range s.partitions {
				lastBusy = append(lastBusy, p.BusBusy)
			}
		},
		Obs: &obs.Observer{Metrics: reg, Journal: j},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	memCyclesWin := float64(s.opts.WindowCycles) * s.cfg.MemCyclesPerCoreCycle()
	for pi, g := range s.obsw.partBus {
		want := float64(lastBusy[pi]-prevBusy[pi]) / memCyclesWin
		if got := g.Value(); got != want || got <= 0 {
			t.Errorf("partition %d bus utilization %v, want the last window's %v", pi, got, want)
		}
	}

	var final strings.Builder
	if err := reg.WriteText(&final); err != nil {
		t.Fatal(err)
	}
	text := final.String()
	for _, want := range []string{
		`ebm_app_eb{app="0",name="BLK"}`,
		`ebm_app_bw{`,
		`ebm_app_cmr{`,
		`ebm_app_tlp{`,
		"ebm_dram_row_hits_total",
		`ebm_mshr_stall_cycles_total{level="l1"}`,
		`ebm_mshr_stall_cycles_total{level="l2"}`,
		"ebm_request_pool_gets_total",
		"ebm_window_app_eb_bucket",
		"ebm_windows_total 8",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
	if midRun.Len() == 0 {
		t.Error("mid-run scrape produced no text")
	}

	winEvents, appEvents := 0, 0
	for _, e := range j.Events() {
		switch e.Kind {
		case obs.EvWindow:
			winEvents++
		case obs.EvAppWindow:
			appEvents++
		}
	}
	if uint64(winEvents) != res.Windows {
		t.Fatalf("journal EvWindow = %d, Result.Windows = %d", winEvents, res.Windows)
	}
	if appEvents != winEvents*2 {
		t.Fatalf("journal EvAppWindow = %d, want %d (2 apps x %d windows)", appEvents, winEvents*2, winEvents)
	}
}

// TestObserverDoesNotPerturbResults asserts the zero-overhead contract on
// the model side: attaching every sink must not change a single bit of
// the simulation outcome.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	run := func(o *obs.Observer) Result {
		s, err := New(Options{
			Config:       smallCfg(),
			Apps:         []kernel.Params{app("BLK"), app("TRD")},
			TotalCycles:  20_000,
			WindowCycles: 2_500,
			Obs:          o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	plain := run(nil)
	observed := run(&obs.Observer{Metrics: obs.NewRegistry(), Journal: obs.NewJournal()})
	if len(plain.Apps) != len(observed.Apps) {
		t.Fatal("app count differs")
	}
	for i := range plain.Apps {
		p, o := plain.Apps[i], observed.Apps[i]
		if math.Float64bits(p.IPC) != math.Float64bits(o.IPC) ||
			math.Float64bits(p.EB) != math.Float64bits(o.EB) ||
			p.Insts != o.Insts {
			t.Fatalf("app %d diverged with observer attached: %+v vs %+v", i, p, o)
		}
	}
	if plain.Windows != observed.Windows {
		t.Fatal("window count diverged")
	}
}
