package experiments

import (
	"fmt"
	"io"
	"sort"

	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/profile"
	"ebm/internal/stats"
	"ebm/internal/workload"
)

// Fig1 reproduces the motivating panel: WS and FI of BFS_FFT under
// ++bestTLP, ++maxTLP, optWS and optFI, normalized to ++bestTLP.
func Fig1(e *Env, w io.Writer) error {
	header(w, "Fig. 1: WS and FI for BFS_FFT (normalized to ++bestTLP)")
	wl := workload.MustMake("BFS", "FFT")
	ev, err := e.EvalWorkload(wl)
	if err != nil {
		return err
	}
	base := ev.Outcomes[SchBestTLP]
	t := newTable("scheme", "combo", "WS", "WS/base", "FI", "FI/base")
	for _, name := range []string{SchBestTLP, SchMaxTLP, SchOptWS, SchOptFI} {
		o := ev.Outcomes[name]
		t.row(name, fmtCombo(o.Combo),
			fmt.Sprintf("%.3f", o.WS), fmt.Sprintf("%.3f", o.WS/base.WS),
			fmt.Sprintf("%.3f", o.FI), fmt.Sprintf("%.3f", o.FI/base.FI))
	}
	t.write(w)
	fmt.Fprintf(w, "\npaper shape: optWS and optFI clearly above ++bestTLP; ++maxTLP at or below it.\n")
	return nil
}

// Fig2 reproduces the single-application TLP study: IPC, BW, CMR, and EB
// for BFS alone, normalized to its bestTLP.
func Fig2(e *Env, w io.Writer) error {
	header(w, "Fig. 2: effect of TLP on IPC, BW, CMR, EB for BFS alone (normalized to bestTLP)")
	// NewEnv already profiled BFS with this machine, run length, and
	// level ladder.
	p := e.Suite.Profiles["BFS"]
	base, _ := p.AtTLP(p.BestTLP)
	t := newTable("TLP", "IPC", "BW", "CMR", "EB", "IPC/base", "EB/base")
	for _, l := range p.Levels {
		a := l.Result
		t.row(fmt.Sprint(l.TLP),
			fmt.Sprintf("%.3f", a.IPC), fmt.Sprintf("%.3f", a.BW),
			fmt.Sprintf("%.3f", a.CMR), fmt.Sprintf("%.3f", a.EB),
			fmt.Sprintf("%.3f", a.IPC/base.Result.IPC),
			fmt.Sprintf("%.3f", a.EB/base.Result.EB))
	}
	t.write(w)
	fmt.Fprintf(w, "\nbestTLP=%d. paper shape: BW and IPC rise with TLP until CMR growth negates\n"+
		"the BW gains; EB tracks IPC across the sweep.\n", p.BestTLP)
	return nil
}

// Fig3 demonstrates effective bandwidth at each hierarchy level for one
// BFS run: EB at L2 = BW/L2MR, EB at the core = BW/CMR.
func Fig3(e *Env, w io.Writer) error {
	header(w, "Fig. 3: effective bandwidth at different levels of the hierarchy (BFS alone)")
	app, _ := kernel.ByName("BFS")
	res, err := profile.AloneRun(e.ctx, app, 4, profile.Options{
		Config:       e.Opt.Config,
		TotalCycles:  e.Opt.GridCycles,
		WarmupCycles: e.Opt.GridWarmup,
		Runner:       e.pool,
		Cache:        e.cache,
	})
	if err != nil {
		return err
	}
	a := res.Apps[0]
	ebL2 := metrics.EB(a.BW, a.L2MR)
	ebCore := metrics.EB(a.BW, a.CMR)
	t := newTable("level", "expression", "value")
	t.row("A: DRAM", "BW (fraction of peak)", fmt.Sprintf("%.3f", a.BW))
	t.row("B: seen by L1 (after L2)", "BW / L2MR", fmt.Sprintf("%.3f", ebL2))
	t.row("C: seen by the core", "BW / (L1MR*L2MR) = BW/CMR", fmt.Sprintf("%.3f", ebCore))
	t.write(w)
	fmt.Fprintf(w, "\nL1MR=%.3f L2MR=%.3f: each cache level amplifies the delivered bandwidth\n"+
		"by the inverse of its miss rate.\n", a.L1MR, a.L2MR)
	return nil
}

// Fig4 reproduces the per-application slowdown and EB breakdowns of the
// representative workloads under ++bestTLP and optWS.
func Fig4(e *Env, w io.Writer) error {
	header(w, "Fig. 4: per-app slowdown and effective bandwidth, ++bestTLP vs optWS")
	t := newTable("workload", "scheme", "combo", "SD-1", "SD-2", "WS", "EB-1", "EB-2", "EB-WS")
	for _, wl := range workload.Representative() {
		ev, err := e.EvalWorkload(wl)
		if err != nil {
			return err
		}
		for _, name := range []string{SchBestTLP, SchOptWS} {
			o := ev.Outcomes[name]
			sd := SD(o.Result, ev.AloneIPC)
			ebs := o.Result.EBs()
			t.row(wl.Name, name, fmtCombo(o.Combo),
				fmt.Sprintf("%.3f", sd[0]), fmt.Sprintf("%.3f", sd[1]),
				fmt.Sprintf("%.3f", o.WS),
				fmt.Sprintf("%.3f", ebs[0]), fmt.Sprintf("%.3f", ebs[1]),
				fmt.Sprintf("%.3f", metrics.EBWS(ebs)))
		}
	}
	t.write(w)
	fmt.Fprintf(w, "\nObservation 1: the combination with the higher EB-WS also has the higher WS\n"+
		"for (almost) every workload above.\n")
	return nil
}

// Fig5 compares the alone-ratio bias of IPC and EB across all application
// pairs: EB_AR is consistently lower, which is why EB-based system metrics
// are less biased proxies (Section IV).
func Fig5(e *Env, w io.Writer) error {
	header(w, "Fig. 5: IPC alone-ratio vs EB alone-ratio across all application pairs")
	names := kernel.Names()
	var ipcAR, ebAR []float64
	wins := 0
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			p1, p2 := e.Suite.Profiles[names[i]], e.Suite.Profiles[names[j]]
			ia := metrics.AloneRatio(p1.BestIPC, p2.BestIPC)
			ea := metrics.AloneRatio(p1.BestEB, p2.BestEB)
			ipcAR = append(ipcAR, ia)
			ebAR = append(ebAR, ea)
			if ea <= ia {
				wins++
			}
		}
	}
	sort.Float64s(ipcAR)
	sort.Float64s(ebAR)
	q := func(xs []float64, p float64) float64 { return xs[int(p*float64(len(xs)-1))] }
	t := newTable("percentile", "IPC_AR", "EB_AR")
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		t.row(fmt.Sprintf("p%.0f", p*100),
			fmt.Sprintf("%.2f", q(ipcAR, p)), fmt.Sprintf("%.2f", q(ebAR, p)))
	}
	t.write(w)
	fmt.Fprintf(w, "\npairs: %d; EB_AR <= IPC_AR in %.1f%% of pairs; gmean IPC_AR=%.2f, EB_AR=%.2f\n",
		len(ipcAR), 100*float64(wins)/float64(len(ipcAR)), stats.Gmean(ipcAR), stats.Gmean(ebAR))
	fmt.Fprintf(w, "paper shape: EB_AR is much lower than IPC_AR on average, so EB-based\n"+
		"system metrics carry less alone-application bias.\n")
	return nil
}
