package experiments

import (
	"fmt"
	"io"

	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/profile"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

// Extras exercises the repository's extensions beyond the paper's figures:
//
//  1. a CCWS-style lost-locality baseline next to ++DynCTA and PBS-WS;
//  2. phase-changing kernels, where PBS's drift detector (an extension of
//     the paper's relaunch-only restart rule) re-searches as interference
//     shifts mid-kernel;
//  3. DRAM refresh modeling as a fidelity ablation.
func Extras(e *Env, w io.Writer) error {
	if err := extraCCWS(e, w); err != nil {
		return err
	}
	if err := extraPhases(e, w); err != nil {
		return err
	}
	return extraRefresh(e, w)
}

func extraCCWS(e *Env, w io.Writer) error {
	header(w, "Extra 1: CCWS-style locality throttling vs DynCTA vs PBS-WS")
	t := newTable("workload", "scheme", "WS", "FI")
	for _, wl := range []workload.Workload{
		workload.MustMake("BLK", "BFS"),
		workload.MustMake("BFS", "FFT"),
		workload.MustMake("CFD", "TRD"),
	} {
		aloneIPC, err := e.Suite.AloneIPC(wl.Names())
		if err != nil {
			return err
		}
		for _, sch := range []struct {
			name string
			spec spec.SchemeSpec
		}{
			{SchDynCTA, spec.DynCTA()},
			{SchCCWS, spec.CCWS()},
			{SchPBSWS, spec.PBS(metrics.ObjWS)},
		} {
			rs := e.EvalSpec(wl, sch.spec)
			rs.VictimTags = 1024
			r, err := e.Run(rs)
			if err != nil {
				return err
			}
			sd := SD(r, aloneIPC)
			t.row(wl.Name, sch.name,
				fmt.Sprintf("%.3f", metrics.WS(sd)), fmt.Sprintf("%.3f", metrics.FI(sd)))
		}
	}
	t.write(w)
	fmt.Fprintf(w, "\nexpected shape: CCWS, like DynCTA, fixes single-app thrashing but cannot\n"+
		"coordinate co-runners; PBS-WS wins by managing the shared bandwidth.\n")
	return nil
}

func extraPhases(e *Env, w io.Writer) error {
	header(w, "Extra 2: phase-changing kernels and drift-triggered re-search")
	// BFS whose alternate kernel phase is far more bandwidth-hungry.
	bfs, _ := kernel.ByName("BFS")
	bfs.KernelInsts = 96 << 10 // short kernels so phases rotate within the horizon
	phase := bfs
	phase.Name = ""
	phase.Rm = 0.15
	phase.CoalesceLines = 2
	phase.SharedFrac = 0.05
	phase.KernelInsts = 0
	phase.Phases = nil
	bfs.Phases = []kernel.Params{phase}
	blk, _ := kernel.ByName("BLK")
	wl := workload.Workload{Name: "BLK_BFSphased", Apps: []kernel.Params{blk, bfs}}

	aloneIPC, err := e.Suite.AloneIPC([]string{"BLK", "BFS"})
	if err != nil {
		return err
	}

	t := newTable("scheme", "WS", "searches", "relaunch restarts", "drift restarts")
	for _, variant := range []struct {
		name  string
		drift float64
	}{
		{"PBS-WS (paper: relaunch-only restarts)", 0},
		{"PBS-WS + drift detector", 0.6},
	} {
		sch := spec.PBS(metrics.ObjWS)
		sch.PBS.DriftThreshold = variant.drift
		sch.PBS.DriftWindows = 4
		r, err := e.RunScheme(wl, sch)
		if err != nil {
			return err
		}
		d := r.Decisions
		t.row(variant.name, fmt.Sprintf("%.3f", metrics.WS(SD(r, aloneIPC))),
			fmt.Sprint(d.Searches), fmt.Sprint(d.Restarts), fmt.Sprint(d.Drifts))
	}
	t.write(w)
	fmt.Fprintf(w, "\n(BFS alternates between a cache-sensitive and a streaming phase each kernel;\n"+
		"slowdowns are against the base-phase alone profile.)\n")
	return nil
}

func extraRefresh(e *Env, w io.Writer) error {
	header(w, "Extra 3: DRAM refresh fidelity ablation")
	trd, _ := kernel.ByName("TRD")
	t := newTable("refresh", "IPC", "attained BW")
	for _, variant := range []struct {
		name        string
		trefi, trfc int
	}{{"off (default)", 0, 0}, {"tREFI=1900 tRFC=130", 1900, 130}} {
		cfg := e.Opt.Config
		cfg.NumCores = cfg.NumCores / 2
		cfg.Timing.TREFI = variant.trefi
		cfg.Timing.TRFC = variant.trfc
		res, err := profile.AloneRun(e.ctx, trd, 8, profile.Options{
			Config:       cfg,
			CoresAlone:   cfg.NumCores,
			TotalCycles:  e.Opt.GridCycles,
			WarmupCycles: e.Opt.GridWarmup,
			Runner:       e.pool,
			Cache:        e.cache,
		})
		if err != nil {
			return err
		}
		t.row(variant.name, fmt.Sprintf("%.3f", res.Apps[0].IPC),
			fmt.Sprintf("%.3f", res.Apps[0].BW))
	}
	t.write(w)
	fmt.Fprintf(w, "\nrefresh costs a streaming kernel a few percent of bandwidth (tRFC/tREFI);\n"+
		"it is off by default to match the paper's accounting.\n")
	return nil
}
