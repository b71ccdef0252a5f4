// Command sweepd is the distributed-sweep coordinator: it shards a
// workload's TLP-combination grid into cells and serves them to
// `sweep -worker` processes over HTTP/JSON, under monotonically-fenced
// leases with heartbeat-driven expiry (DESIGN.md §15).
//
// Usage:
//
//	sweepd -workload BLK_TRD -listen :9900
//	sweep  -worker http://localhost:9900        # on each worker machine
//
// The coordinator is the sweep's durable brain, not its muscle: it
// never simulates. Cells already present in -simcache complete up
// front; everything else is leased out, and accepted completions are
// persisted back into the cache (idempotent fingerprint-keyed puts) and
// into the assignment-state checkpoint (-state, atomic temp+rename), so
// killing and restarting sweepd resumes the sweep without re-running
// finished cells — and without ever reissuing a fencing token a zombie
// worker still holds, because fencing tokens are reserved in persisted
// blocks and the successor resumes above the reservation.
//
// Workers that miss heartbeats or stop making progress have their
// leases expired by a per-worker resilience watchdog (-lease-ttl) and
// their cells reassigned; stale completions are rejected by the fencing
// check. Every state transition is journaled to stderr and mirrored
// into /metrics counters (ebm_dsweep_leases_granted/expired/
// reassigned_total, ebm_dsweep_fenced_rejects_total), and accepted
// completions append worker-attributed provenance records to -ledger
// for `sweep -explain`.
//
// SIGINT/SIGTERM stops serving and exits 130; the state checkpoint and
// the cache keep everything completed so far, and rerunning the same
// command resumes. A second signal kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"ebm/internal/cli"
	"ebm/internal/config"
	"ebm/internal/dsweep"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/workload"
)

func main() { cli.Main("sweepd", run) }

func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	sess := cli.NewSession(fs, cli.Cache, "auto")
	var (
		wlName  = fs.String("workload", "BLK_TRD", "two-application workload to sweep, e.g. BLK_TRD")
		levelsF = fs.String("levels", "", "comma-separated TLP levels per axis (default: the full ladder)")
		cycles  = fs.Uint64("cycles", 120_000, "cycles per combination")
		warmup  = fs.Uint64("warmup", 20_000, "warmup cycles")
		listen  = fs.String("listen", ":9900", "address the coordinator serves the wire protocol (and /metrics) on")
		stateF  = fs.String("state", "auto",
			"assignment-state checkpoint `file` rewritten atomically on every transition "+
				"(auto = dsweep-state.json beside the -simcache directory; empty disables restart resume)")
		leaseTTL = fs.Duration("lease-ttl", dsweep.DefaultLeaseTTL,
			"no-progress deadline per worker: a lease whose holder stops heartbeating or advancing expires and its cell is reassigned")
	)
	if done, err := sess.Parse(args); done {
		return err
	}

	cfg := config.Default()
	wl, ok := workload.ByName(*wlName)
	if !ok || len(wl.Apps) != 2 {
		return cli.Usagef("need a two-application workload; apps: %v", kernel.Names())
	}
	var levels []int
	if *levelsF != "" {
		for _, s := range strings.Split(*levelsF, ",") {
			l, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return cli.Usagef("bad -levels %q: %v", *levelsF, err)
			}
			levels = append(levels, l)
		}
	}
	cells := dsweep.GridCells(wl.Apps, dsweep.GridOptions{
		Config: cfg, Levels: levels, TotalCycles: *cycles, WarmupCycles: *warmup,
	})
	statePath := *stateF
	if statePath == "auto" {
		statePath = sess.Beside("dsweep-state.json")
	}
	// Accepted completions append worker-attributed provenance records
	// to the session's ledger (auto = beside the cache directory).
	ctx, err = sess.Open(ctx)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()

	// Every coordinator state transition lands in the journal; the
	// stderr subscriber narrates it live, and the registry mirrors the
	// lease lifecycle into /metrics.
	journal := obs.NewJournal()
	journal.Subscribe(func(e obs.Event) {
		if e.Kind == obs.EvDsweep || e.Kind == obs.EvResilience {
			fmt.Fprintf(os.Stderr, "sweepd: %s\n", e.Label)
		}
	})
	reg := obs.NewRegistry()
	mon := resilience.NewMonitor(reg, journal)

	coord, err := dsweep.New(dsweep.Options{
		Cells:     cells,
		Cache:     sess.Cache(),
		StatePath: statePath,
		LeaseTTL:  *leaseTTL,
		Version:   cli.Version(),
		Journal:   journal,
		Ledger:    sess.Ledger(),
		Registry:  reg,
		Mon:       mon,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	mux := http.NewServeMux()
	mux.Handle("/", coord.Handler())
	mux.Handle(dsweep.PathMetrics, obs.Handler(reg))
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer func() {
		// Shutdown, not Close: the completion that finished the sweep may
		// still be owed its reply, and its worker must hear "accepted".
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()

	st := coord.Status()
	fmt.Fprintf(os.Stderr, "sweepd: %s grid: %d cells (%d already done), serving on http://%s\n",
		*wlName, st.Total, st.Done, ln.Addr())
	hint := *listen
	if strings.HasPrefix(hint, ":") {
		hint = "<this-host>" + hint
	}
	fmt.Fprintf(os.Stderr, "sweepd: point workers at it: sweep -worker http://%s\n", hint)

	start := time.Now()
	if err := coord.Wait(ctx); err != nil {
		st := coord.Status()
		fmt.Fprintf(os.Stderr,
			"sweepd: interrupted with %d/%d cells done; state and cache are persisted — rerun the same command to resume\n",
			st.Done, st.Total)
		return err
	}
	st = coord.Status()
	n := st.Counts
	fmt.Fprintf(os.Stderr, "sweepd: sweep complete: %d cells in %v (%d prewarmed, %d resumed, %d completed by workers)\n",
		st.Total, time.Since(start).Round(time.Millisecond), n.Prewarmed, n.Resumed, n.Completed)
	fmt.Fprintf(os.Stderr, "sweepd: leases: %d granted, %d expired, %d reassigned, %d released, %d fenced rejects\n",
		n.Granted, n.Expired, n.Reassigned, n.Released, n.FencedRejects)
	fmt.Fprintf(os.Stderr, "sweepd: results persisted to %s — a local `sweep -workload %s` now replays from cache\n",
		sess.Cache().Dir(), *wlName)
	return nil
}
