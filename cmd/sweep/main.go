// Command sweep builds the exhaustive TLP-combination grid for a workload
// and prints the metric surfaces plus every search's pick — the raw data
// behind the paper's opt/BF/PBS comparison points.
//
// Usage:
//
//	sweep -workload BLK_TRD
//	sweep -workload BFS_FFT -grids ws,ebws,fi
//	sweep -workload BFS_FFT -cycles 200000
//	sweep -workload BLK_TRD -schemes "dyncta pbs-ws ccws:hivta=0.2"
//	sweep -workload BLK_TRD -o results/blk_trd.txt -listen :8080
//
// The grid's combinations run concurrently; -parallel bounds the worker
// count (default: all CPUs, runtime.NumCPU). Per-combination progress is
// journaled and echoed to stderr; -listen additionally serves live
// ebm_sweep_combos_done/total gauges (plus cache hit/miss and resilience
// counters) on /metrics. -o tees the report into a file (parent
// directories are created). -cpuprofile/-memprofile write pprof profiles
// of the build. Wall-clock time and simulations per second are reported
// on stderr at exit.
//
// -schemes runs online schemes next to the grid, at the same length and
// through the same cache, pool and checkpoint store. The engine checks
// each of their decisions; a scheme whose policy panics fails the sweep
// with a "runner: task panic" error and leaves no cached result.
//
// Results — the workload's alone-run profiles and every combination —
// are persisted under -simcache (default ./simcache), so an interrupted
// sweep resumes where it left off: already persisted combinations replay
// from disk, only the missing ones are simulated. -ckpt DIR additionally
// persists engine snapshots at window boundaries under DIR and forks
// each uncached simulation from the deepest snapshot sharing its
// deterministic prefix, so even the cold part of a sweep is sub-linear;
// -ckpt-max-bytes caps the store (oldest checkpoints evicted first). The
// exit report counts simulations computed, replayed from cache, and
// forked from checkpoints.
//
// Provenance and tracing: with -simcache on, every completed run appends
// one JSON record to a ledger beside the cache directory (-ledger;
// default auto, empty disables) capturing how it was satisfied — cached,
// forked@depth, or cold — plus retries, injected faults, and cost.
// `sweep -explain` reads that ledger back and prints the summary
// (outcome counts, retry/fault totals, slowest runs) without simulating;
// repeated -ledger flags (or a directory of *.jsonl) merge several
// workers' ledgers, deduplicating records by fingerprint and
// attributing each run to the worker that satisfied it.
//
// `sweep -worker http://host:9900` joins a distributed sweep instead of
// running one: the process registers with a `sweepd` coordinator,
// leases grid cells under fencing tokens, executes them through the
// same -simcache/-ckpt stack, and heartbeats its progress. SIGTERM
// drains gracefully (the in-flight cell finishes, unstarted leases are
// released, the worker deregisters) and exits 130.
// -trace-spans writes the orchestration span tree (sweep → profiling /
// grid cells → cache get/put → execute) as a Chrome trace-event
// flamechart for chrome://tracing.
//
// SIGINT/SIGTERM triggers exactly that interruption
// gracefully — in-flight simulations abort at their next window boundary,
// the pool drains, finished combinations stay persisted, and a resumable
// state report is printed before exiting 130. A second signal kills the
// process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/cli"
	"ebm/internal/config"
	"ebm/internal/dsweep"
	"ebm/internal/experiments"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/profile"
	"ebm/internal/resilience"
	"ebm/internal/runner"
	"ebm/internal/search"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

func main() { cli.Main("sweep", run) }

func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	sess := cli.NewSession(fs, cli.Cache|cli.Ckpt|cli.Spans|cli.Profile, "auto")
	var (
		wlName  = fs.String("workload", "BLK_TRD", "two-application workload, e.g. BLK_TRD")
		grids   = fs.String("grids", "ws,ebws", "surfaces to print: ws,fi,hs,ebws,ebfi,it,bw")
		schemes = fs.String("schemes", "",
			"also run these online schemes at grid length (whitespace-separated canonical "+
				"scheme strings, e.g. 'dyncta pbs-ws ccws:hivta=0.2'; scheme grammar: "+spec.FlagHelp()+")")
		cycles   = fs.Uint64("cycles", 120_000, "cycles per combination")
		warmup   = fs.Uint64("warmup", 20_000, "warmup cycles")
		parallel = fs.Int("parallel", runtime.NumCPU(), "concurrent grid simulations (default: all CPUs)")
		outPath  = fs.String("o", "", "also write the report to this file, e.g. results/blk_trd.txt")
		listen   = fs.String("listen", "", "serve live sweep-progress metrics on this address, e.g. :8080")
		explain  = fs.Bool("explain", false,
			"read the -ledger file(s) and print a provenance summary instead of sweeping; "+
				"several -ledger flags (or a directory of *.jsonl) merge, deduplicating by fingerprint and attributing outcomes per worker")
		workerURL = fs.String("worker", "",
			"run as a distributed-sweep worker: pull leased cells from the coordinator at this base `URL` (e.g. http://host:9900) until the sweep completes")
		workerID = fs.String("id", "", "worker identity for -worker (default hostname-pid)")
	)
	if done, err := sess.Parse(args); done {
		return err
	}
	if *explain {
		return explainLedgers(sess.LedgerPaths())
	}
	wl, ok := workload.ByName(*wlName)
	if *workerURL == "" && (!ok || len(wl.Apps) != 2) {
		return cli.Usagef("need a two-application workload; apps: %v", kernel.Names())
	}

	// -trace-spans: a tracer rides the context through every layer below;
	// the root "sweep" span parents profiling, the grid build, and the
	// scheme runs (lanes = concurrent workers). The provenance ledger
	// hangs off the cache handle: every completed run appends one JSON
	// record (fingerprint, scheme, cached / forked / cold, retries,
	// faults, cost) that `sweep -explain` later summarizes.
	ctx, err = sess.Open(ctx, obs.A("workload", *wlName))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()

	// -worker is a service mode: the rest of the flags describing what
	// to sweep are the coordinator's business; this process just
	// executes whatever cells it is leased, through the same
	// cache/checkpoint stack a local sweep uses.
	if *workerURL != "" {
		return runWorker(ctx, sess, *workerURL, *workerID, *parallel)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		if dir := filepath.Dir(*outPath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", *outPath)
		}()
		out = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	work0 := sim.CyclesSimulated() // engine work before this sweep
	sims := 0                      // simulations actually executed this run
	cached := 0                    // results replayed from the on-disk cache
	forked := 0                    // simulations forked from a prefix checkpoint
	defer func() {
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "sweep: %d simulations in %v (%.1f sims/s), %d replayed from cache, %d forked from checkpoints\n",
			sims, elapsed.Round(time.Millisecond), float64(sims)/elapsed.Seconds(), cached, forked)
		fmt.Fprintf(os.Stderr, "sweep: %d engine cycles simulated (cache hits and restored checkpoint prefixes excluded)\n",
			sim.CyclesSimulated()-work0)
	}()

	cfg := config.Default()

	// The result cache is what makes an interrupted sweep resumable:
	// every finished combination is persisted as it completes, and a rerun
	// replays those cells instead of re-simulating them. The checkpoint
	// store makes even the *cold* part of a sweep sub-linear: every
	// uncached simulation forks from the deepest persisted snapshot of
	// its deterministic prefix. The pool bounds execution at -parallel
	// workers; closing it waits for in-flight tasks, which is the orderly
	// drain a SIGINT relies on.
	rcache, store := sess.Cache(), sess.Ckpt()
	pool := runner.New(*parallel)
	defer pool.Close()

	// Per-combination progress flows through an event journal: a stderr
	// subscriber narrates it, and -listen mirrors it into live gauges.
	// Resilience incidents (cancelled runs, cache retries) land in the
	// same journal and registry.
	journal := obs.NewJournal()
	journal.Subscribe(func(e obs.Event) {
		switch e.Kind {
		case obs.EvProgress:
			fmt.Fprintf(os.Stderr, "sweep: %d/%d combinations (last %s)\n",
				e.Done, e.Total, e.Label)
		case obs.EvResilience:
			fmt.Fprintf(os.Stderr, "sweep: resilience: %s\n", e.Label)
		}
	})
	var doneG, totalG *obs.Gauge
	var reg *obs.Registry
	if *listen != "" {
		reg = obs.NewRegistry()
		doneG = reg.Gauge("ebm_sweep_combos_done", "grid combinations simulated so far")
		totalG = reg.Gauge("ebm_sweep_combos_total", "grid combinations in this sweep")
		sim.InstrumentWork(reg) // ebm_cycles_simulated: work, not just progress
		pool.Instrument(reg)
		rcache.Instrument(reg)
		store.Instrument(reg)
		srv, err := obs.Serve(*listen, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sweep: serving metrics on http://%s/metrics\n", srv.Addr)
	}
	mon := resilience.NewMonitor(reg, journal)
	rcache.SetMonitor(mon)
	store.SetMonitor(mon)

	// resumeReport describes the persisted state after an interruption so
	// the user knows exactly what a rerun will pick up.
	comboDone, comboTotal := 0, 0
	resumeReport := func(stage string) {
		fmt.Fprintf(os.Stderr, "sweep: interrupted during %s: %d/%d grid combinations done\n",
			stage, comboDone, comboTotal)
		if rcache != nil {
			s := rcache.Stats()
			fmt.Fprintf(os.Stderr,
				"sweep: %d results persisted to %s this run (%d replayed); rerun the same command to resume — finished combinations replay from the cache\n",
				s.Writes, rcache.Dir(), s.Hits)
		} else {
			fmt.Fprintln(os.Stderr, "sweep: no -simcache directory: a rerun starts from scratch")
		}
		if store != nil {
			cs := store.Stats()
			fmt.Fprintf(os.Stderr,
				"sweep: %d checkpoints persisted to %s; a rerun forks interrupted combinations from them\n",
				cs.Writes, store.Dir())
		}
	}

	// Only the workload's two applications are profiled; their alone
	// runs replay from the result cache like every grid cell.
	suite, err := profile.ProfileSuite(ctx, wl.Apps, profile.Options{
		Config: cfg, Runner: pool, Cache: rcache, Ckpt: store,
	})
	if err != nil {
		if ctx.Err() != nil {
			resumeReport("profiling")
		}
		return err
	}
	names := wl.Names()
	aloneIPC, _ := suite.AloneIPC(names)
	aloneEB, _ := suite.AloneEB(names)
	bestTLPs, _ := suite.BestTLPs(names)

	gridOpts := search.GridOptions{
		Config: cfg, TotalCycles: *cycles, WarmupCycles: *warmup,
		Parallelism: *parallel,
		Runner:      pool,
		Cache:       rcache,
		Ckpt:        store,
		Progress: func(done, total int, combo []int) {
			comboDone, comboTotal = done, total
			totalG.Set(float64(total))
			doneG.Set(float64(done))
			journal.Record(obs.Event{
				Kind: obs.EvProgress, App: -1,
				Done: done, Total: total, Label: fmt.Sprint(combo),
			})
		},
	}
	g, err := search.BuildGrid(ctx, wl.Apps, gridOpts)
	if err != nil {
		if ctx.Err() != nil {
			resumeReport("grid build")
		}
		return err
	}
	countRuns := func() {
		sims = len(g.Results)
		if rcache != nil {
			// Every executed simulation is persisted on completion, so the
			// write count is the number of runs this invocation actually paid
			// for; hits are cells (and profiles) replayed from disk.
			s := rcache.Stats()
			sims = int(s.Writes + s.WriteFails)
			cached = int(s.Hits)
		}
		if store != nil {
			forked = int(store.Stats().Forks)
		}
	}
	countRuns()
	defer countRuns() // the -schemes runs below still simulate

	surfaces := map[string]struct {
		title string
		eval  search.Eval
	}{
		"ws":   {"WS (weighted speedup)", search.SDEval(metrics.ObjWS, aloneIPC)},
		"fi":   {"FI (fairness index)", search.SDEval(metrics.ObjFI, aloneIPC)},
		"hs":   {"HS (harmonic speedup)", search.SDEval(metrics.ObjHS, aloneIPC)},
		"ebws": {"EB-WS", search.EBEval(metrics.ObjWS, nil)},
		"ebfi": {"EB-FI (scaled)", search.EBEval(metrics.ObjFI, aloneEB)},
		"it":   {"IT (instruction throughput)", search.ITEval()},
		"bw":   {"total attained bandwidth", func(r sim.Result) float64 { return r.TotalBW }},
	}
	for _, key := range strings.Split(*grids, ",") {
		key = strings.TrimSpace(key)
		s, ok := surfaces[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "sweep: unknown surface %q\n", key)
			continue
		}
		fmt.Fprintf(out, "\n%s grid (rows: TLP-%s, cols: TLP-%s)\n       ", s.title, names[0], names[1])
		for _, t1 := range g.Levels {
			fmt.Fprintf(out, "%8d", t1)
		}
		fmt.Fprintln(out)
		for _, t0 := range g.Levels {
			fmt.Fprintf(out, "%6d ", t0)
			for _, t1 := range g.Levels {
				r, err := g.At([]int{t0, t1})
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%8.3f", s.eval(r))
			}
			fmt.Fprintln(out)
		}
	}

	wsEval := surfaces["ws"].eval
	fiEval := surfaces["fi"].eval
	hsEval := surfaces["hs"].eval
	report := func(label string, combo []int) error {
		r, err := g.At(combo)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-16s combo=%-9v WS=%.3f FI=%.3f HS=%.3f\n",
			label, combo, wsEval(r), fiEval(r), hsEval(r))
		return nil
	}

	fmt.Fprintln(out)
	if err := report("++bestTLP", bestTLPs); err != nil {
		return err
	}
	if err := report("++maxTLP", []int{config.MaxTLP, config.MaxTLP}); err != nil {
		return err
	}
	// The evaluation's grid picks, with sweep's own maxIT row before
	// PBS-Offline's searches.
	for _, p := range experiments.GridPicks(aloneIPC, aloneEB) {
		if p.Name == experiments.SchPBSWSOff {
			c, _ := g.Best(surfaces["it"].eval)
			if err := report("maxIT", c); err != nil {
				return err
			}
		}
		c, err := p.Pick(g)
		if err != nil {
			if ctx.Err() != nil {
				resumeReport("search " + p.Name)
			}
			return err
		}
		if err := report(p.Name, c); err != nil {
			return err
		}
	}

	// -schemes: online comparison points next to the grid searches, run
	// at the same per-combination length through the same cache and
	// pool. Whitespace separates schemes because commas belong to the
	// scheme grammar itself.
	for _, ss := range strings.Fields(*schemes) {
		sch, err := spec.ParseScheme(ss)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		if sch.Kind == spec.KindBestTLP && len(sch.Static.TLPs) == 0 {
			sch = spec.BestTLP(bestTLPs) // resolve from the alone profiles
		}
		rs := spec.RunSpec{
			Config:             cfg,
			Apps:               wl.Apps,
			Scheme:             sch,
			TotalCycles:        *cycles,
			WarmupCycles:       *warmup,
			WindowCycles:       2_500,
			DesignatedSampling: true,
			VictimTags:         spec.VictimTagsFor(sch),
		}
		r, err := simcache.RunCached(ctx, rcache, pool, runner.PriEval, rs, ckpt.Runner(store, rs))
		if err != nil {
			if ctx.Err() != nil {
				resumeReport("scheme " + sch.String())
			}
			return err
		}
		sd, err := metrics.Slowdowns(r.IPCs(), aloneIPC)
		if err != nil {
			return err
		}
		final := make([]int, len(r.Apps))
		for i, a := range r.Apps {
			final[i] = a.FinalTLP
		}
		fmt.Fprintf(out, "%-16s final=%-9v WS=%.3f FI=%.3f HS=%.3f\n",
			sch.String(), final, metrics.WS(sd), metrics.FI(sd), metrics.HS(sd))
	}
	return nil
}

// explainLedgers is sweep -explain, a reader mode: summarize the
// ledger(s) a previous sweep — local or distributed — appended, without
// simulating. Several paths (or a directory of per-worker files) merge
// into one view: records sharing a fingerprint collapse onto the worker
// that actually executed the run.
func explainLedgers(paths []string) error {
	if len(paths) == 0 {
		return cli.Usagef("-explain needs a -ledger file (or -simcache for the auto default)")
	}
	merged := len(paths) > 1
	if fi, err := os.Stat(paths[0]); err == nil && fi.IsDir() {
		merged = true
	}
	recs, skipped, err := obs.ReadLedgers(paths...)
	if err != nil {
		return err
	}
	dups := 0
	if merged {
		recs, dups = obs.DedupByFingerprint(recs)
	}
	sum := obs.SummarizeLedger(recs, 10)
	sum.Skipped = skipped
	sum.Dups = dups
	fmt.Printf("provenance ledger %s\n", strings.Join(paths, ", "))
	sum.WriteText(os.Stdout)
	return nil
}

// runWorker is `sweep -worker`: register with the coordinator, lease
// cells, execute them through the session's cache/checkpoint stack, and
// report each under its fencing token. SIGTERM/SIGINT cancels ctx,
// which drains gracefully — the in-flight cell finishes, unstarted
// leases are released, the worker deregisters — and exits 130 through
// the usual cli contract (a second signal kills immediately).
func runWorker(ctx context.Context, sess *cli.Session, url, id string, parallel int) error {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	// The worker's ledger is its slice of the sweep's provenance: every
	// record is stamped with the worker id, so `sweep -explain` over the
	// collected per-worker files attributes each run to who satisfied it.
	sess.Ledger().SetWorker(id)
	pool := runner.New(parallel)
	defer pool.Close()

	w := dsweep.NewWorker(dsweep.WorkerOptions{
		ID: id, URL: url,
		Cache: sess.Cache(), Ckpt: sess.Ckpt(), Runner: pool,
		Version: cli.Version(),
	})
	fmt.Fprintf(os.Stderr, "sweep: worker %s pulling cells from %s\n", id, url)
	err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "sweep: worker %s: %d completions accepted, %d fenced off\n",
		id, w.Completed(), w.Fenced())
	return err
}
