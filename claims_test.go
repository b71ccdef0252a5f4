package ebm_test

// End-to-end tests of the paper's scientific claims on a reduced machine.
// These are the repository's "does the reproduction actually reproduce"
// guards: they exercise profiling, the grid searches, and the online PBS
// manager across module boundaries.

import (
	"slices"
	"testing"

	"ebm"
)

// claimsSetup profiles a pair and builds its grid on an 8-core machine
// with a reduced level set, small enough for the test suite.
type claimsSetup struct {
	cfg      ebm.Config
	wl       ebm.Workload
	aloneIPC []float64
	aloneEB  []float64
	bestTLPs []int
	grid     *ebm.Grid
}

func setupClaims(t *testing.T, a, b string) *claimsSetup {
	t.Helper()
	cfg := ebm.DefaultConfig()
	cfg.NumCores = 8
	cfg.NumMemPartitions = 8
	wl, ok := ebm.WorkloadByName(a + "_" + b)
	if !ok {
		t.Fatalf("workload %s_%s", a, b)
	}
	suite, err := ebm.Profile(wl.Apps, ebm.ProfileOptions{
		Config:       cfg,
		TotalCycles:  40_000,
		WarmupCycles: 8_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := &claimsSetup{cfg: cfg, wl: wl}
	if cs.aloneIPC, err = suite.AloneIPC(wl.Names()); err != nil {
		t.Fatal(err)
	}
	if cs.aloneEB, err = suite.AloneEB(wl.Names()); err != nil {
		t.Fatal(err)
	}
	if cs.bestTLPs, err = suite.BestTLPs(wl.Names()); err != nil {
		t.Fatal(err)
	}
	if cs.grid, err = ebm.BuildGrid(wl.Apps, ebm.GridOptions{
		Config:       cfg,
		TotalCycles:  40_000,
		WarmupCycles: 8_000,
	}); err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestClaimBestTLPIsSuboptimal: the paper's motivating observation — the
// ++bestTLP combination leaves significant WS on the table versus the
// exhaustive optimum for a contentious pair.
func TestClaimBestTLPIsSuboptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cs := setupClaims(t, "BFS", "FFT")
	wsEval := ebm.SDEval(ebm.ObjWS, cs.aloneIPC)
	base, err := cs.grid.At(cs.bestTLPs)
	if err != nil {
		t.Fatal(err)
	}
	_, optWS := cs.grid.Best(wsEval)
	gain := optWS / wsEval(base)
	if gain < 1.10 {
		t.Fatalf("optWS only %.3fx of ++bestTLP; the motivating gap is missing", gain)
	}
	t.Logf("optWS/bestTLP = %.3f (paper reports up to ~1.4 for BFS_FFT)", gain)
}

// TestClaimObservation1: the TLP combination maximizing EB-WS also yields
// (nearly) the highest WS — the proxy the whole mechanism rests on.
func TestClaimObservation1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, pair := range [][2]string{{"BFS", "FFT"}, {"BLK", "BFS"}} {
		cs := setupClaims(t, pair[0], pair[1])
		wsEval := ebm.SDEval(ebm.ObjWS, cs.aloneIPC)
		bfCombo, _ := cs.grid.Best(ebm.EBEval(ebm.ObjWS, nil))
		bfRes, err := cs.grid.At(bfCombo)
		if err != nil {
			t.Fatal(err)
		}
		_, optWS := cs.grid.Best(wsEval)
		frac := wsEval(bfRes) / optWS
		if frac < 0.90 {
			t.Errorf("%s_%s: BF-WS reaches only %.1f%% of optWS", pair[0], pair[1], 100*frac)
		} else {
			t.Logf("%s_%s: BF-WS reaches %.1f%% of optWS", pair[0], pair[1], 100*frac)
		}
	}
}

// TestClaimPBSOfflineNearOpt: the pattern-based search reaches most of the
// exhaustive EB search's WS with a quarter of the samples.
func TestClaimPBSOfflineNearOpt(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cs := setupClaims(t, "BFS", "FFT")
	wsEval := ebm.SDEval(ebm.ObjWS, cs.aloneIPC)
	combo, _, err := cs.grid.PBSOffline(ebm.ObjWS, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cs.grid.At(combo)
	if err != nil {
		t.Fatal(err)
	}
	_, optWS := cs.grid.Best(wsEval)
	if frac := wsEval(res) / optWS; frac < 0.85 {
		t.Fatalf("PBS offline reaches only %.1f%% of optWS", 100*frac)
	}
}

// onlineSetup profiles a pair on the full default (Table I) machine —
// where the paper's contention gap lives — without building a grid.
func onlineSetup(t *testing.T, a, b string) (ebm.Config, ebm.Workload, []float64, []int) {
	t.Helper()
	cfg := ebm.DefaultConfig()
	wl, ok := ebm.WorkloadByName(a + "_" + b)
	if !ok {
		t.Fatalf("workload %s_%s", a, b)
	}
	suite, err := ebm.Profile(wl.Apps, ebm.ProfileOptions{
		Config:       cfg,
		TotalCycles:  60_000,
		WarmupCycles: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	aloneIPC, err := suite.AloneIPC(wl.Names())
	if err != nil {
		t.Fatal(err)
	}
	bestTLPs, err := suite.BestTLPs(wl.Names())
	if err != nil {
		t.Fatal(err)
	}
	return cfg, wl, aloneIPC, bestTLPs
}

func runOnline(t *testing.T, cfg ebm.Config, wl ebm.Workload, aloneIPC []float64, m ebm.Manager) []float64 {
	t.Helper()
	res, err := ebm.Run(ebm.RunOptions{
		Config:             cfg,
		Apps:               wl.Apps,
		Manager:            m,
		TotalCycles:        500_000,
		WarmupCycles:       5_000,
		WindowCycles:       2_500,
		DesignatedSampling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := ebm.Slowdowns(res.IPCs(), aloneIPC)
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

// TestClaimOnlinePBSBeatsBestTLP: the full online mechanism — sampling
// hardware, search overheads, decision latency — still beats ++bestTLP on
// the Table I machine, where running each app at its alone-best TLP
// collapses system throughput.
func TestClaimOnlinePBSBeatsBestTLP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg, wl, aloneIPC, bestTLPs := onlineSetup(t, "BFS", "FFT")
	base := ebm.WS(runOnline(t, cfg, wl, aloneIPC, ebm.NewStaticManager("++bestTLP", bestTLPs)))
	pbs := ebm.WS(runOnline(t, cfg, wl, aloneIPC, ebm.NewPBSWS()))
	if pbs <= base {
		t.Fatalf("online PBS-WS (%.3f) did not beat ++bestTLP (%.3f)", pbs, base)
	}
	t.Logf("online PBS-WS %.3f vs ++bestTLP %.3f (+%.1f%%)", pbs, base, 100*(pbs/base-1))
}

// TestClaimPBSFIImprovesFairness: PBS-FI raises the fairness index over
// ++bestTLP on a bully/victim pair.
func TestClaimPBSFIImprovesFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg, wl, aloneIPC, bestTLPs := onlineSetup(t, "BLK", "BFS")
	base := ebm.FI(runOnline(t, cfg, wl, aloneIPC, ebm.NewStaticManager("++bestTLP", bestTLPs)))
	fi := ebm.FI(runOnline(t, cfg, wl, aloneIPC, ebm.NewPBSFI()))
	if fi <= base {
		t.Fatalf("PBS-FI fairness %.3f did not improve on ++bestTLP %.3f", fi, base)
	}
	t.Logf("PBS-FI FI %.3f vs ++bestTLP %.3f", fi, base)
}

// TestClaimEBTracksIPC: Equation 1 — for a single application, EB and IPC
// move together across the TLP sweep (their argmaxes are within one level).
func TestClaimEBTracksIPC(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := ebm.DefaultConfig()
	cfg.NumCores = 8
	app, _ := ebm.AppByName("FFT")
	suite, err := ebm.Profile([]ebm.App{app}, ebm.ProfileOptions{
		Config:       cfg,
		CoresAlone:   8,
		TotalCycles:  40_000,
		WarmupCycles: 8_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := suite.Profiles["FFT"]
	bestIPCIdx, bestEBIdx := 0, 0
	for i, l := range p.Levels {
		if l.Result.IPC > p.Levels[bestIPCIdx].Result.IPC {
			bestIPCIdx = i
		}
		if l.Result.EB > p.Levels[bestEBIdx].Result.EB {
			bestEBIdx = i
		}
	}
	if d := bestIPCIdx - bestEBIdx; d < -1 || d > 1 {
		t.Fatalf("IPC argmax level %d vs EB argmax level %d: EB does not track IPC",
			p.Levels[bestIPCIdx].TLP, p.Levels[bestEBIdx].TLP)
	}
}

// TestFig11SeriesFromRecord: Fig. 11's per-window series, rebuilt from a
// run's decision record (Result.WindowStates), equals what the window
// hook and the manager report while the run executes — each window's
// cycle, per-app TLPs and L1 bypass flags from the Sample, and whether
// PBS is searching after it — for PBS-WS and PBS-FI on BLK_BFS, on the
// claims' reduced machine. The record's counts equal the manager's.
func TestFig11SeriesFromRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := ebm.DefaultConfig()
	cfg.NumCores = 8
	cfg.NumMemPartitions = 8
	wl, ok := ebm.WorkloadByName("BLK_BFS")
	if !ok {
		t.Fatal("workload BLK_BFS")
	}
	for name, mgr := range map[string]*ebm.PBS{"PBS-WS": ebm.NewPBSWS(), "PBS-FI": ebm.NewPBSFI()} {
		type window struct {
			cycle     uint64
			tlp       []int
			bypass    []bool
			searching bool
		}
		var want []window
		opts := ebm.RunOptions{
			Config:             cfg,
			Apps:               wl.Apps,
			Manager:            mgr,
			TotalCycles:        200_000,
			WarmupCycles:       5_000,
			WindowCycles:       2_500,
			DesignatedSampling: true,
			OnWindow: func(s ebm.Sample) {
				w := window{cycle: s.Cycle, bypass: make([]bool, len(s.Apps)), searching: mgr.Searching()}
				for i, a := range s.Apps {
					w.tlp = append(w.tlp, a.TLP)
					w.bypass[i] = a.Bypass
				}
				want = append(want, w)
			},
		}
		res, err := ebm.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		got := res.WindowStates(opts.WindowCycles)
		if len(got) != len(want) {
			t.Fatalf("%s: %d windows from the record, %d observed", name, len(got), len(want))
		}
		searching := 0
		for k, st := range got {
			w := want[k]
			bypass := make([]bool, len(w.tlp))
			if st.Bypass != nil {
				bypass = st.Bypass
			}
			if st.Cycle != w.cycle || !slices.Equal(st.TLP, w.tlp) || !slices.Equal(bypass, w.bypass) || st.Searching != w.searching {
				t.Fatalf("%s: window %d from the record %+v, observed %+v", name, k, st, w)
			}
			if st.Searching {
				searching++
			}
		}
		if searching == 0 || searching == len(got) {
			t.Fatalf("%s: PBS searched in %d of %d windows; the series shows no search ending", name, searching, len(got))
		}
		d := res.Decisions
		if d.Searches != mgr.Searches() || d.Restarts != mgr.Restarts() || d.Drifts != mgr.Drifts() {
			t.Fatalf("%s: record counts %d/%d/%d, manager %d/%d/%d", name,
				d.Searches, d.Restarts, d.Drifts, mgr.Searches(), mgr.Restarts(), mgr.Drifts())
		}
		t.Logf("%s: %d windows, %d searching, %d change points, %d searches, %d restarts",
			name, len(got), searching, len(d.Changes), d.Searches, d.Restarts)
	}
}
