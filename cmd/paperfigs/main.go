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
// evaluations from disk. -ckpt DIR additionally persists engine snapshots
// under DIR and forks every uncached simulation from the deepest
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ebm/internal/cli"
	"ebm/internal/experiments"
	"ebm/internal/workload"
)

func main() { cli.Main("paperfigs", run) }

func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	sess := cli.NewSession(fs, cli.Cache|cli.Ckpt|cli.Spans, "")
	var (
		list  = fs.Bool("list", false, "list experiments and exit")
		id    = fs.String("id", "", "run a single experiment by id (e.g. fig9)")
		all   = fs.Bool("all", false, "run every experiment")
		quick = fs.Bool("quick", false, "reduced run lengths and the 10 representative workloads")
		out   = fs.String("out", "", "directory to also write one text file per experiment")
	)
	if done, err := sess.Parse(args); done {
		return err
	}
	if *list {
		for _, x := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", x.ID, x.Title)
		}
		return nil
	}
	xs := experiments.Registry()
	switch {
	case *id != "":
		x, ok := experiments.ByID(*id)
		if !ok {
			return cli.Usagef("unknown experiment %q (try -list)", *id)
		}
		xs = []experiments.Experiment{x}
	case !*all:
		return cli.Usagef("pass -id <experiment>, -all, or -list")
	}

	// The tracer rides ctx into NewEnv and every experiment below it;
	// provenance records flow through the environment's own handle on
	// the session's cache directory.
	ctx, err = sess.Open(ctx)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	opt := experiments.Options{
		SimCache: sess.Cache().Dir(), Ckpt: sess.Ckpt(), Ledger: sess.Ledger(),
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

	for _, x := range xs {
		if err := ctx.Err(); err != nil {
			return err // stop between experiments; completed panels are already printed
		}
		if err := runOne(env, x, *out); err != nil {
			return err
		}
	}
	return nil
}

// runOne prints one experiment to stdout and, with -out, also to
// DIR/<id>.txt.
func runOne(env *experiments.Env, x experiments.Experiment, dir string) (err error) {
	w := io.Writer(os.Stdout)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, ferr := os.Create(filepath.Join(dir, x.ID+".txt"))
		if ferr != nil {
			return ferr
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		w = io.MultiWriter(os.Stdout, f)
	}
	t0 := time.Now()
	if err := x.Run(env, w); err != nil {
		return fmt.Errorf("%s: %w", x.ID, err)
	}
	fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", x.ID, time.Since(t0).Seconds())
	return nil
}
