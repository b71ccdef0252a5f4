// Command ebsim runs one multi-application workload under one TLP
// management scheme and reports the Table III metrics.
//
// Usage:
//
//	ebsim -workload BLK_TRD -scheme pbs-ws
//	ebsim -workload BFS_FFT -scheme static:2,6
//	ebsim -workload BLK_BFS -scheme ccws:hivta=0.2,hyst=3
//	ebsim -workload JPEG_CFD_TRD -scheme dyncta -cycles 500000
//	ebsim -alone BFS            # single-application TLP sweep (Fig. 2 style)
//
// -scheme takes the canonical scheme grammar of internal/spec (see the
// README's scheme table): a registered kind — static, besttlp, maxtlp,
// dyncta, modbypass, ccws, pbs-ws, pbs-fi, pbs-hs, batch, wrs —
// optionally followed by ":args" carrying TLP levels or key=value knobs.
//
// The engine checks every decision the policy makes: a wrong-shaped one
// keeps the current TLP combination, and every TLP is clamped onto a
// hardware level. A policy that panics ends the run: through the result
// cache it surfaces as a "runner: task panic" error, and a run that
// bypasses the cache crashes with the panic.
//
// Observability: -listen serves live Prometheus metrics on /metrics,
// -trace writes the per-window CSV time series, -chrometrace writes a
// Chrome trace-event file for chrome://tracing (see DESIGN.md §7 and the
// README's "Watching a run live"). -trace-spans writes the orchestration
// span tree as a Chrome-trace flamechart, and -ledger appends one
// provenance record per run satisfied through the result cache
// (DESIGN.md §12). The -listen mux also exposes net/http/pprof under
// /debug/pprof/.
//
// Performance diagnosis: -cpuprofile and -memprofile write pprof profiles
// of the run (inspect with `go tool pprof`); see DESIGN.md's Performance
// section for the benchmark workflow.
//
// -simcache DIR (default ./simcache, "" disables) persists simulation
// results content-addressed by their full configuration: the alone-run
// profiles of the workload's applications and the run itself. A repeated
// invocation with identical flags replays bit-identically from disk.
// Runs with -trace/-chrometrace/-listen bypass the cache for the run
// itself (they need the live event stream). -ckpt DIR (default "",
// disabled) persists engine snapshots under DIR and forks uncached runs
// from the deepest snapshot sharing their deterministic prefix (so re-running with a longer
// -cycles only simulates the extension); -ckpt-max-bytes caps the store.
// A result or checkpoint that cannot be read degrades to execution, and
// one that cannot be written is retried, then warned about; neither
// changes the metrics (DESIGN.md §10).
//
// SIGINT/SIGTERM cancels the run cooperatively (exit 130); a second
// signal kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"ebm/internal/ckpt"
	"ebm/internal/cli"
	"ebm/internal/config"
	pbscore "ebm/internal/core"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/profile"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

func main() { cli.Main("ebsim", run) }

func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("ebsim", flag.ContinueOnError)
	sess := cli.NewSession(fs, cli.Cache|cli.Ckpt|cli.Spans|cli.Profile, "")
	var (
		wlName  = fs.String("workload", "", "workload name, e.g. BLK_TRD (suite apps joined by _)")
		alone   = fs.String("alone", "", "profile a single application across all TLP levels")
		scheme  = fs.String("scheme", "pbs-ws", spec.FlagHelp())
		cycles  = fs.Uint64("cycles", 300_000, "total simulated core cycles")
		warmup  = fs.Uint64("warmup", 10_000, "warmup cycles excluded from metrics")
		window  = fs.Uint64("window", 2_500, "sampling window in cycles")
		verbose = fs.Bool("v", false, "print per-application details")
		traceF  = fs.String("trace", "", "write per-window TLP/EB/BW/CMR time series to a CSV file")
		chromeF = fs.String("chrometrace", "", "write a Chrome trace-event JSON file (open in chrome://tracing)")
		listen  = fs.String("listen", "", "serve live Prometheus metrics on this address, e.g. :8080 (0 picks a port)")
	)
	if done, err := sess.Parse(args); done {
		return err
	}
	// -trace-spans: the tracer rides ctx through profiling, the cached
	// run, and the retry layer. -ledger: provenance hangs off the
	// result-cache handle; observed runs (-trace/-chrometrace/-listen)
	// bypass the cache and so leave no records.
	ctx, err = sess.Open(ctx, obs.A("workload", *wlName))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	rcache, store := sess.Cache(), sess.Ckpt()
	if store != nil {
		defer func() {
			s := store.Stats()
			fmt.Fprintf(os.Stderr, "ebsim: ckpt: %d forks, %d checkpoints persisted (%s)\n",
				s.Forks, s.Writes, store.Dir())
		}()
	}
	cfg := config.Default()

	if *alone != "" {
		return runAlone(ctx, cfg, *alone, rcache, store)
	}
	if *wlName == "" {
		return cli.Usagef("pass -workload NAME or -alone APP")
	}
	wl, ok := workload.ByName(*wlName)
	if !ok {
		return cli.Usagef("unknown workload %q; apps: %v", *wlName, kernel.Names())
	}

	// Equal core partitioning requires divisibility: shrink the machine
	// to the largest multiple (e.g. 15 cores for three applications) as
	// the paper's equal-share methodology implies.
	if rem := cfg.NumCores % len(wl.Apps); rem != 0 {
		cfg.NumCores -= rem
		fmt.Fprintf(os.Stderr, "ebsim: using %d cores for an equal %d-way split\n",
			cfg.NumCores, len(wl.Apps))
	}
	// Only the workload's own applications are profiled: an application's
	// alone profile does not depend on the rest of the suite.
	suite, err := profile.ProfileSuite(ctx, wl.Apps, profile.Options{
		Config: cfg, CoresAlone: cfg.NumCores / len(wl.Apps), Cache: rcache, Ckpt: store,
	})
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	names := wl.Names()
	aloneIPC, err := suite.AloneIPC(names)
	if err != nil {
		return err
	}
	bestTLPs, err := suite.BestTLPs(names)
	if err != nil {
		return err
	}

	sch, err := spec.ParseScheme(*scheme)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	if sch.Kind == spec.KindBestTLP && len(sch.Static.TLPs) == 0 {
		sch = spec.BestTLP(bestTLPs) // resolve from the alone profiles
	}
	mgr, err := sch.Manager(len(wl.Apps))
	if err != nil {
		return cli.Usagef("%v", err)
	}

	victimTags := spec.VictimTagsFor(sch)

	// Observability sinks: a journal backs the CSV and Chrome-trace
	// exporters, a registry backs the live /metrics endpoint. With none of
	// the flags set the observer stays nil and the engine's hot path is
	// untouched.
	var observer *obs.Observer
	if *traceF != "" || *chromeF != "" || *listen != "" {
		observer = &obs.Observer{}
		if *traceF != "" || *chromeF != "" {
			observer.Journal = obs.NewJournal()
		}
		if *listen != "" {
			observer.Metrics = obs.NewRegistry()
		}
		if pbs, ok := mgr.(*pbscore.PBS); ok {
			observer.PhaseFn = pbs.Phase
		}
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen, observer.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ebsim: serving metrics on http://%s/metrics\n", srv.Addr)
	}

	rs := spec.RunSpec{
		Config:             cfg,
		Apps:               wl.Apps,
		Scheme:             sch,
		TotalCycles:        *cycles,
		WarmupCycles:       *warmup,
		WindowCycles:       *window,
		DesignatedSampling: true,
		VictimTags:         victimTags,
	}
	var res sim.Result
	if (rcache != nil || store != nil) && observer == nil {
		// Hook-free runs go through the result cache and the checkpoint
		// store: a repeated invocation with identical flags replays
		// bit-identically from disk, and a longer one forks from the
		// deepest shared-prefix snapshot. Observed runs must execute for
		// their event streams, so they bypass both.
		res, err = simcache.RunCached(ctx, rcache, nil, 0, rs, ckpt.Runner(store, rs))
		if err != nil {
			return err
		}
	} else {
		runOpts, err := sim.FromSpec(rs)
		if err != nil {
			return err
		}
		runOpts.Manager = mgr // the instance observer.PhaseFn is wired to
		runOpts.Obs = observer
		s, err := sim.New(runOpts)
		if err != nil {
			return err
		}
		if res, err = s.RunContext(ctx); err != nil {
			return err
		}
	}

	if *traceF != "" {
		if err := writeFile(*traceF, func(f *os.File) error {
			return obs.WriteWindowsCSV(f, observer.Journal, len(wl.Apps))
		}); err != nil {
			return err
		}
	}
	if *chromeF != "" {
		if err := writeFile(*chromeF, func(f *os.File) error {
			return obs.WriteChromeTrace(f, observer.Journal, obs.ChromeTraceOptions{AppNames: names})
		}); err != nil {
			return err
		}
	}

	sd, err := metrics.Slowdowns(res.IPCs(), aloneIPC)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s under %s (%d cycles, %d windows)\n",
		wl.Name, mgr.Name(), res.Cycles, res.Windows)
	fmt.Printf("WS=%.3f FI=%.3f HS=%.3f IT=%.3f total BW=%.3f\n",
		metrics.WS(sd), metrics.FI(sd), metrics.HS(sd), metrics.IT(res.IPCs()), res.TotalBW)
	for i, a := range res.Apps {
		fmt.Printf("  %-5s SD=%.3f IPC=%6.2f (alone %6.2f @ TLP %2d)  EB=%6.3f  final TLP=%d\n",
			a.Name, sd[i], a.IPC, aloneIPC[i], bestTLPs[i], a.EB, a.FinalTLP)
		if *verbose {
			fmt.Printf("        L1MR=%.3f L2MR=%.3f CMR=%.3f BW=%.3f rowhit=%.2f "+
				"lat=%.0f memstall=%.2f util=%.2f avgTLP=%.1f kernels=%d\n",
				a.L1MR, a.L2MR, a.CMR, a.BW, a.RowHitRate, a.AvgLatency,
				a.MemStallFrac, a.IssueUtil, a.AvgTLP, a.Kernels)
		}
	}
	return nil
}

// writeFile creates path and runs write against it.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ebsim: wrote %s\n", path)
	return nil
}

func runAlone(ctx context.Context, cfg config.GPU, name string, rcache *simcache.Cache, store *ckpt.Store) error {
	app, ok := kernel.ByName(name)
	if !ok {
		return cli.Usagef("unknown application %q; apps: %v", name, kernel.Names())
	}
	suite, err := profile.ProfileSuite(ctx, []kernel.Params{app}, profile.Options{Config: cfg, Cache: rcache, Ckpt: store})
	if err != nil {
		return err
	}
	p := suite.Profiles[app.Name]
	fmt.Printf("%s alone (bestTLP=%d, IPC=%.2f, EB=%.3f)\n", name, p.BestTLP, p.BestIPC, p.BestEB)
	fmt.Printf("%4s %8s %7s %7s %7s %8s %7s\n", "TLP", "IPC", "L1MR", "L2MR", "CMR", "BW", "EB")
	for _, l := range p.Levels {
		a := l.Result
		fmt.Printf("%4d %8.3f %7.3f %7.3f %7.3f %8.3f %7.3f\n",
			l.TLP, a.IPC, a.L1MR, a.L2MR, a.CMR, a.BW, a.EB)
	}
	return nil
}
