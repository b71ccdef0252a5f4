// Command paperfigs regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	paperfigs -list
//	paperfigs -id fig9            # one experiment
//	paperfigs -all                # everything, in paper order
//	paperfigs -all -quick         # reduced workload set and run lengths
//	paperfigs -all -out results/  # additionally write one file per panel
//
// Simulation results are cached under ./simcache by default (-simcache ""
// disables); a warm rerun replays alone-run profiles, grids, and
// evaluations from disk. -ckpt additionally persists engine snapshots
// under -ckpt-dir and forks every uncached simulation from the deepest
// snapshot sharing its deterministic prefix — a cold -quick pass and the
// full pass share the prefix work.
//
// SIGINT/SIGTERM cancels the run cooperatively: in-flight simulations
// abort at their next window boundary, completed results stay persisted
// in the caches, and a rerun resumes from them (exit 130). A second
// signal kills the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/cli"
	"ebm/internal/experiments"
	"ebm/internal/obs"
	"ebm/internal/workload"
)

func main() { cli.Main("paperfigs", run) }

func run(ctx context.Context) error {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		id      = fs.String("id", "", "run a single experiment by id (e.g. fig9)")
		all     = fs.Bool("all", false, "run every experiment")
		quick   = fs.Bool("quick", false, "reduced run lengths and the 10 representative workloads")
		simc    = fs.String("simcache", "simcache", "simulation-result cache directory (empty disables)")
		ckptOn  = fs.Bool("ckpt", false, "fork uncached simulations from prefix checkpoints")
		ckptDir = fs.String("ckpt-dir", "ckpt", "prefix-checkpoint store directory (with -ckpt)")
		ckptMax = fs.Int64("ckpt-max-bytes", 0, "checkpoint store byte cap, oldest evicted first (0 = unbounded)")
		adapt   = fs.Bool("adaptive", false, "compute bestTLP/oracle columns via the adaptive coarse-to-fine search instead of exhaustive grids")
		out     = fs.String("out", "", "directory to also write one text file per experiment")
		ledgerF = fs.String("ledger", "", "append one provenance record per completed run to this JSONL `file` (needs -simcache)")
		spansF  = fs.String("trace-spans", "", "write the orchestration spans as a Chrome trace-event `file` at exit")
		version = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *version {
		fmt.Println("paperfigs", cli.Version())
		return nil
	}

	if *list {
		for _, x := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", x.ID, x.Title)
		}
		return nil
	}
	if !*all && *id == "" {
		return cli.Usagef("pass -id <experiment>, -all, or -list")
	}

	opt := experiments.Options{SimCache: *simc, Adaptive: *adapt}
	// -trace-spans: the tracer rides ctx into NewEnv and every experiment
	// below it; the finished span tree is written as a flamechart at exit.
	if *spansF != "" {
		tracer := obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
		var root *obs.Span
		ctx, root = obs.StartSpan(ctx, "paperfigs")
		defer func() {
			root.End()
			f, err := os.Create(*spansF)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperfigs:", err)
				return
			}
			werr := obs.WriteSpanTrace(f, tracer)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "paperfigs:", werr)
				return
			}
			fmt.Fprintf(os.Stderr, "paperfigs: wrote %d spans to %s\n", tracer.Len(), *spansF)
		}()
	}
	// -ledger: provenance records flow through the environment's simcache
	// handle, so the cache is a prerequisite.
	if *ledgerF != "" {
		if *simc == "" {
			return cli.Usagef("-ledger needs -simcache")
		}
		l, err := obs.OpenLedger(*ledgerF)
		if err != nil {
			return err
		}
		defer l.Close()
		defer func() {
			fmt.Fprintf(os.Stderr, "paperfigs: %d provenance records appended to %s\n",
				l.Appends(), *ledgerF)
		}()
		opt.Ledger = l
	}
	if *ckptOn {
		store, err := ckpt.Open(*ckptDir)
		if err != nil {
			return err
		}
		store.SetMaxBytes(*ckptMax)
		opt.Ckpt = store
	}
	if *quick {
		opt.GridCycles = 60_000
		opt.GridWarmup = 10_000
		opt.EvalCycles = 150_000
		opt.EvalWarmup = 5_000
		opt.Workloads = workload.Representative()
	}
	start := time.Now()
	env, err := experiments.NewEnv(ctx, opt)
	if err != nil {
		return fmt.Errorf("profiling failed: %w", err)
	}
	fmt.Fprintf(os.Stderr, "profiles ready in %.1fs\n", time.Since(start).Seconds())
	defer func() {
		if c := env.Cache(); c != nil {
			s := c.Stats()
			fmt.Fprintf(os.Stderr, "simcache: %d hits, %d misses, %d results persisted (%s)\n",
				s.Hits, s.Misses, s.Writes, c.Dir())
		}
		if st := env.Ckpt(); st != nil {
			s := st.Stats()
			fmt.Fprintf(os.Stderr, "ckpt: %d forks, %d misses, %d checkpoints persisted (%s)\n",
				s.Forks, s.Misses, s.Writes, st.Dir())
		}
	}()

	runOne := func(x experiments.Experiment) error {
		var w io.Writer = os.Stdout
		var f *os.File
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			var err error
			f, err = os.Create(filepath.Join(*out, x.ID+".txt"))
			if err != nil {
				return err
			}
			defer f.Close()
			w = io.MultiWriter(os.Stdout, f)
		}
		t0 := time.Now()
		if err := x.Run(env, w); err != nil {
			return fmt.Errorf("%s: %w", x.ID, err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", x.ID, time.Since(t0).Seconds())
		return nil
	}

	if *id != "" {
		x, ok := experiments.ByID(*id)
		if !ok {
			return cli.Usagef("unknown experiment %q (try -list)", *id)
		}
		return runOne(x)
	}
	for _, x := range experiments.Registry() {
		if err := ctx.Err(); err != nil {
			return err // stop between experiments; completed panels are already printed
		}
		if err := runOne(x); err != nil {
			return err
		}
	}
	return nil
}
