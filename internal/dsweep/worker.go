package dsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/tlp"
)

// heartbeatFaults is the optional fault seam for the control plane:
// when the configured Hooks value also implements it (as
// *faultinject.Injector does), every heartbeat send draws a fault
// decision first — an error means the beat is dropped on the floor.
type heartbeatFaults interface {
	Heartbeat(worker string) error
}

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// ID names this worker on the coordinator and in provenance
	// records. Must be unique among live workers.
	ID string
	// URL is the coordinator's base URL (e.g. "http://host:9900").
	URL string
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client

	// Cache/Ckpt/Runner are the same execution stack a local sweep
	// uses: results are served from and persisted to Cache (the shared
	// store), uncached cells fork from Ckpt, and simulations run on
	// Runner (nil = the process-wide pool).
	Cache  *simcache.Cache
	Ckpt   *ckpt.Store
	Runner *runner.Runner

	// Hooks is the fault-injection seam: its WindowBoundary runs at the
	// end of every simulated window (injected stalls), and, when it
	// implements heartbeatFaults, it also faults the control plane
	// (dropped/delayed beats). Nil in production.
	Hooks faultinject.Hooks

	// Version is this binary's build identity for the registration
	// handshake (cli.Version form).
	Version string
}

// Worker pulls leased cells from a coordinator and executes them
// through the shared cache/checkpoint stack.
//
// Two contexts govern its lifetime, deliberately distinct:
//
//   - Run's ctx is the drain signal (SIGTERM): when it cancels, the
//     in-flight cell FINISHES, unstarted leases are released, and the
//     worker deregisters — an orderly exit another worker never has to
//     clean up after.
//   - The internal hard context (tripped by Kill) is the crash: it
//     aborts the simulation at its next window boundary and skips all
//     courtesies, leaving the coordinator to expire the lease. Chaos
//     tests use it to die the way real workers die.
type Worker struct {
	o          WorkerOptions
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// hbEvery is the coordinator-assigned heartbeat cadence in
	// nanoseconds. Atomic because re-registration (a 410 mid-sweep)
	// rewrites it while the heartbeat goroutine reads it.
	hbEvery  atomic.Int64
	progress atomic.Uint64 // simulation windows completed, reported in heartbeats
	done     atomic.Uint64 // completions accepted by the coordinator
	fenced   atomic.Uint64 // completions rejected by the fencing check
}

// NewWorker builds a worker; Run starts it.
func NewWorker(o WorkerOptions) *Worker {
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Version == "" {
		o.Version = "devel"
	}
	w := &Worker{o: o}
	w.hardCtx, w.hardCancel = context.WithCancel(context.Background())
	return w
}

// Kill simulates a worker crash: the in-flight simulation aborts at
// its next window boundary, heartbeats stop, and nothing is released
// or deregistered — recovering is the coordinator's problem.
func (w *Worker) Kill() { w.hardCancel() }

// Completed returns how many completions the coordinator accepted.
func (w *Worker) Completed() uint64 { return w.done.Load() }

// Fenced returns how many of this worker's completions were rejected
// by the fencing check (it was a zombie for those cells).
func (w *Worker) Fenced() uint64 { return w.fenced.Load() }

// Run registers, then leases and executes cells until the coordinator
// reports the sweep done (returns nil), ctx cancels (graceful drain;
// returns ctx.Err so the CLI exits 130), or Kill fires.
func (w *Worker) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := w.register(); err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	go w.heartbeatLoop(stop)

	for {
		if err := w.hardCtx.Err(); err != nil {
			return err // killed
		}
		if err := ctx.Err(); err != nil {
			w.deregister() // drain: the previous cell already finished
			return err
		}
		reply, code, err := w.lease()
		if code == http.StatusGone {
			// The coordinator forgot us — our lease expired or it
			// restarted. Every fence we held is dead; start over.
			if err := w.register(); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		switch {
		case reply.Done:
			w.deregister()
			return nil
		case reply.Cell == nil:
			select {
			case <-time.After(w.hbInterval()):
			case <-ctx.Done():
			case <-w.hardCtx.Done():
			}
			continue
		}
		if ctx.Err() != nil {
			// Drain arrived between the liveness check and the grant:
			// this lease never started, so hand it straight back.
			w.release(reply.Cell.Key, reply.Fence)
			w.deregister()
			return ctx.Err()
		}
		done, err := w.execute(reply.Cell, reply.Fence)
		if err != nil {
			return err
		}
		if done {
			// Our completion was the sweep's last: exit off this reply
			// rather than racing one more /lease against a coordinator
			// that may already be shutting down.
			w.deregister()
			return nil
		}
	}
}

// execute runs one cell through the shared stack and reports it under
// the lease's fence, returning whether this completion finished the
// sweep. The provenance trail attached here is the same one RunCached
// and the layers below annotate, so the record shipped to the
// coordinator says exactly how the cell was satisfied.
func (w *Worker) execute(cell *Cell, fence uint64) (bool, error) {
	rs := cell.Spec
	if got := simcache.Key(rs); got != cell.Key {
		return false, fmt.Errorf("dsweep: cell fingerprint mismatch: coordinator says %s, spec keys as %s", cell.Key, got)
	}
	start := time.Now()
	runCtx, trail := obs.WithTrail(w.hardCtx)
	runFn := func(rc context.Context) (sim.Result, error) {
		return ckpt.ExecuteWith(rc, w.o.Ckpt, rs, func(o *sim.Options) {
			prev := o.OnWindow
			o.OnWindow = func(s tlp.Sample) {
				w.progress.Add(1)
				if prev != nil {
					prev(s)
				}
				if w.o.Hooks != nil {
					w.o.Hooks.WindowBoundary(s.Cycle)
				}
			}
		})
	}
	res, err := simcache.RunCached(runCtx, w.o.Cache, w.o.Runner, runner.PriGrid, rs, runFn)
	if err != nil {
		return false, err
	}
	rec := simcache.LedgerRecord(rs, cell.Key, trail, res, time.Since(start))
	rec.Worker = w.o.ID
	reply, _, err := w.complete(CompleteRequest{
		Worker: w.o.ID, Key: cell.Key, Fence: fence, Result: res, Record: &rec,
	})
	if err != nil {
		return false, err
	}
	if reply.Accepted {
		w.done.Add(1)
	} else {
		w.fenced.Add(1)
	}
	return reply.Done, nil
}

// heartbeatLoop beats at the coordinator-assigned cadence until the
// worker exits or is killed. Send failures are deliberately ignored:
// liveness is the coordinator's judgement, and the penalty for silence
// is exactly the lease expiry the protocol is built around.
func (w *Worker) heartbeatLoop(stop <-chan struct{}) {
	t := time.NewTicker(w.hbInterval())
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-w.hardCtx.Done():
			return
		case <-t.C:
			// Re-registration may have been assigned a new cadence.
			t.Reset(w.hbInterval())
			if hf, ok := w.o.Hooks.(heartbeatFaults); ok {
				if hf.Heartbeat(w.o.ID) != nil {
					continue // injected drop: the beat never leaves
				}
			}
			w.post(PathHeartbeat, HeartbeatRequest{Worker: w.o.ID, Progress: w.progress.Load()}, nil)
		}
	}
}

// hbInterval returns the current heartbeat cadence, defaulting before
// the first registration reply lands.
func (w *Worker) hbInterval() time.Duration {
	if ns := w.hbEvery.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return DefaultLeaseTTL / 3
}

func (w *Worker) register() error {
	var reply HelloReply
	code, err := w.post(PathRegister, Hello{
		Worker:      w.o.ID,
		Version:     w.o.Version,
		Wire:        WireVersion,
		CacheSchema: simcache.SchemaVersion,
		CkptSchema:  ckpt.SchemaVersion,
	}, &reply)
	if err != nil {
		return fmt.Errorf("dsweep: register: %w", err)
	}
	if !reply.OK {
		reason := reply.Error
		if reason == "" {
			reason = fmt.Sprintf("coordinator answered %d", code)
		}
		return fmt.Errorf("dsweep: worker %s rejected: %s", w.o.ID, reason)
	}
	if reply.HeartbeatEveryNs > 0 {
		w.hbEvery.Store(reply.HeartbeatEveryNs)
	}
	return nil
}

func (w *Worker) lease() (LeaseReply, int, error) {
	var reply LeaseReply
	code, err := w.post(PathLease, LeaseRequest{Worker: w.o.ID}, &reply)
	if err != nil {
		return LeaseReply{}, code, fmt.Errorf("dsweep: lease: %w", err)
	}
	if code == http.StatusGone {
		return LeaseReply{}, code, nil
	}
	return reply, code, nil
}

func (w *Worker) complete(req CompleteRequest) (CompleteReply, int, error) {
	var reply CompleteReply
	code, err := w.post(PathComplete, req, &reply)
	if err != nil {
		return CompleteReply{}, code, fmt.Errorf("dsweep: complete: %w", err)
	}
	return reply, code, nil
}

func (w *Worker) release(key string, fence uint64) {
	w.post(PathRelease, ReleaseRequest{Worker: w.o.ID, Key: key, Fence: fence}, nil)
}

func (w *Worker) deregister() {
	w.post(PathDeregister, DeregisterRequest{Worker: w.o.ID}, nil)
}

// post sends one JSON request and decodes the JSON reply (when out is
// non-nil and the server sent a body). The status code is returned
// even alongside an unmarshallable body so callers can branch on 410.
func (w *Worker) post(path string, in, out any) (int, error) {
	b, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(w.hardCtx, http.MethodPost, w.o.URL+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.o.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
}

// Ensure the injector satisfies the control-plane fault seam.
var _ heartbeatFaults = (*faultinject.Injector)(nil)
