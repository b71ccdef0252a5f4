// Package runner is the run-level execution layer: one process-wide
// bounded worker pool that every simulation orchestrator — the alone-run
// profiler, the exhaustive grid builder, and the experiments evaluation
// loop — submits to. Sharing one pool lets independent phases pipeline
// (the tail of one workload's grid overlaps the head of another's
// evaluation) instead of each orchestrator spawning a throwaway worker
// set with an idle stall at every phase boundary.
//
// Tasks carry a priority (profiles unblock everything, evaluation runs
// are the long poles, grid cells are plentiful filler) and an optional
// singleflight key: identical keyed tasks submitted while one is queued
// or running attach to the first execution instead of re-running, so an
// identical (config, apps, TLPs, cycles) simulation executes at most
// once per process.
//
// Contract: tasks must be leaves. A task running on a pool worker must
// never submit to (and wait on) the same pool — with every worker blocked
// the queue can no longer drain. Orchestration loops therefore fan out
// on ForEach's own worker goroutines and submit only the actual
// simulations.
package runner

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"ebm/internal/faultinject"
	"ebm/internal/obs"
)

// ErrClosed is returned by Do once Close has been called: a shut-down
// pool refuses new work instead of running it inline, so orchestrators
// cannot accidentally keep executing past shutdown.
var ErrClosed = errors.New("runner: pool closed")

// Task priorities. Higher runs first; FIFO within a priority.
const (
	// PriGrid is for exhaustive-grid cells: plentiful, short, and only
	// consumed in bulk, so they fill whatever capacity is left.
	PriGrid = 10
	// PriEval is for evaluation-length scheme runs: the longest
	// individual simulations, started as soon as their grid resolves.
	PriEval = 20
	// PriProfile is for alone-run profiling: everything else depends on
	// the profiles, so they go to the head of the queue.
	PriProfile = 30
)

// Task is one unit of pooled work. The result is opaque to the pool.
type Task func() (any, error)

// call is one execution that one or more Do callers wait on.
type call struct {
	done chan struct{}
	val  any
	err  error
	dups int // callers that joined it through Group.Do (guarded by Group.mu)
}

// item is one queued task.
type item struct {
	ctx context.Context
	pri int
	seq uint64 // FIFO tiebreak within a priority
	key string
	fn  Task
	c   *call
}

type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)   { *h = append(*h, x.(*item)) }
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Runner is a bounded worker pool with a priority queue and singleflight
// deduplication. The zero value is not usable; construct with New or use
// the process-wide Default.
type Runner struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    itemHeap
	inflight map[string]*call
	seq      uint64
	closed   bool
	workers  int
	active   int // tasks currently executing (Close waits on this)

	// hooks is the fault-injection seam (nil in production); TaskStart
	// runs inside the panic-recovery region of every pooled task.
	hooks faultinject.Hooks

	ran     atomic.Uint64
	deduped atomic.Uint64

	// Optional observability handles (nil-safe), set via Instrument.
	queueDepth *obs.Gauge
	runsC      *obs.Counter
	dedupC     *obs.Counter
}

// New starts a pool with the given number of workers (minimum 1).
func New(workers int) *Runner {
	if workers < 1 {
		workers = 1
	}
	r := &Runner{
		inflight: make(map[string]*call),
		workers:  workers,
	}
	r.cond = sync.NewCond(&r.mu)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

var (
	defaultOnce sync.Once
	std         *Runner
)

// Default returns the process-wide shared pool, sized to the machine's
// CPU count on first use.
func Default() *Runner {
	defaultOnce.Do(func() { std = New(runtime.NumCPU()) })
	return std
}

// Workers returns the pool size.
func (r *Runner) Workers() int {
	if r == nil {
		return 0
	}
	return r.workers
}

// Close shuts the pool down and waits: queued tasks still run (their Do
// callers are already committed to the results), in-flight tasks finish,
// and only then does Close return, so a closed pool has no work left in
// the air. Do calls arriving after Close return ErrClosed. Close is
// intended for test-local pools (the Default pool lives for the
// process).
func (r *Runner) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	for len(r.queue) > 0 || r.active > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// SetHooks installs the fault-injection seam (the chaos tests). Call
// before submitting work; nil (the default) is the zero-cost
// production configuration.
func (r *Runner) SetHooks(h faultinject.Hooks) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hooks = h
	r.mu.Unlock()
}

// Do submits fn at the given priority and blocks until it (or the
// in-flight execution it deduplicates onto) completes, or ctx is
// cancelled — cancellation abandons the wait with ctx.Err(); a queued
// task whose context is already cancelled is skipped, never run, which
// is what lets a shutdown drain the queue in bounded time. A non-empty
// key enables singleflight: if a task with the same key is queued or
// running, the caller attaches to that execution and shares its result.
// An empty key always executes. A nil Runner executes fn inline; a
// closed Runner returns ErrClosed. A nil ctx means context.Background().
func (r *Runner) Do(ctx context.Context, key string, pri int, fn Task) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The pool span covers queue wait plus execution (or the wait on a
	// deduplicated predecessor) — the gap between it and the nested
	// execute span is time spent queued.
	_, sp := obs.StartSpan(ctx, "pool.do", obs.A("key", key), obs.A("pri", strconv.Itoa(pri)))
	defer sp.End()
	if r == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return fn()
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	if key != "" {
		if c, ok := r.inflight[key]; ok {
			r.mu.Unlock()
			r.deduped.Add(1)
			r.dedupC.Inc()
			sp.Annotate("shared", "true")
			select {
			case <-c.done:
				return c.val, c.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	c := &call{done: make(chan struct{})}
	if key != "" {
		r.inflight[key] = c
	}
	r.seq++
	heap.Push(&r.queue, &item{ctx: ctx, pri: pri, seq: r.seq, key: key, fn: fn, c: c})
	r.queueDepth.Set(float64(r.queue.Len()))
	r.cond.Signal()
	r.mu.Unlock()
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		// The task may still run (other dedup waiters could be attached);
		// this caller just stops waiting for it.
		return nil, ctx.Err()
	}
}

func (r *Runner) worker() {
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if len(r.queue) == 0 && r.closed {
			r.mu.Unlock()
			return
		}
		it := heap.Pop(&r.queue).(*item)
		r.active++
		hooks := r.hooks
		r.queueDepth.Set(float64(r.queue.Len()))
		r.mu.Unlock()

		skipped := false
		if err := it.ctx.Err(); err != nil {
			// Submitted before the cancel, popped after: complete the call
			// without running so a shutdown drains instead of simulating.
			it.c.err = err
			skipped = true
		} else {
			it.c.val, it.c.err = runHooked(hooks, it.key, it.fn)
			r.ran.Add(1)
		}

		r.mu.Lock()
		if it.key != "" {
			delete(r.inflight, it.key)
		}
		r.active--
		if !skipped {
			r.runsC.Inc()
		}
		r.cond.Broadcast() // wake Close waiters and idle workers
		r.mu.Unlock()
		close(it.c.done)
	}
}

// runSafe converts a task panic into an error so one bad simulation does
// not take down every orchestrator sharing the pool.
func runSafe(fn Task) (v any, err error) {
	return runHooked(nil, "", fn)
}

// runHooked is runSafe with the fault-injection seam: TaskStart runs
// inside the recovery region, so an injected panic surfaces as the same
// task error a real crash would.
func runHooked(hooks faultinject.Hooks, label string, fn Task) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner: task panic: %v", p)
		}
	}()
	if hooks != nil {
		hooks.TaskStart(label)
	}
	return fn()
}

// Stats is a point-in-time snapshot of the pool.
type Stats struct {
	Ran     uint64 // tasks executed
	Deduped uint64 // Do calls absorbed by singleflight
	Queued  int    // tasks currently waiting
}

// Stats returns the pool's counters.
func (r *Runner) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	q := len(r.queue)
	r.mu.Unlock()
	return Stats{Ran: r.ran.Load(), Deduped: r.deduped.Load(), Queued: q}
}

// Instrument mirrors the pool's activity into an obs registry:
// ebm_runner_queue_depth, ebm_runner_tasks_total, and
// ebm_runner_dedup_total.
func (r *Runner) Instrument(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queueDepth = reg.Gauge("ebm_runner_queue_depth", "tasks waiting in the shared executor queue")
	r.runsC = reg.Counter("ebm_runner_tasks_total", "tasks executed by the shared executor")
	r.dedupC = reg.Counter("ebm_runner_dedup_total", "submissions absorbed by singleflight dedup")
	r.runsC.Set(r.ran.Load())
	r.dedupC.Set(r.deduped.Load())
}

// Group is a standalone singleflight for non-pooled values (e.g. "build
// this workload's grid once even if many goroutines ask"): concurrent Do
// calls with the same key share one execution of fn; once it returns the
// key is forgotten, so failures are retryable.
type Group struct {
	mu sync.Mutex
	m  map[string]*call
}

// Do runs fn for key, deduplicating concurrent callers. shared reports
// whether the result came from another caller's execution.
func (g *Group) Do(key string, fn func() (any, error)) (v any, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &call{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = runSafe(fn)

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// ForEach calls fn(i) for each i in [0,n) on at most limit long-lived
// worker goroutines (limit <= 0 means one per call), which claim indices
// in ascending order. The first limit calls start together; each later
// one is claimed by a worker whose previous call returned, unless a call
// has returned an error. No call starts once ctx is done. ForEach waits
// for the calls it started and returns the first error in completion
// order. A done ctx is not itself an error: callers that word an
// interruption check ctx themselves.
func ForEach(ctx context.Context, n, limit int, fn func(i int) error) error {
	if limit <= 0 || limit > n {
		limit = n
	}
	var (
		wg     sync.WaitGroup
		once   sync.Once
		failed atomic.Bool
		first  error
		next   atomic.Int64 // the next index past the first limit
	)
	next.Store(int64(limit))
	done := ctx.Done()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	wg.Add(limit)
	for w := 0; w < limit; w++ {
		go func(i int) {
			defer wg.Done()
			for !cancelled() {
				if err := fn(i); err != nil {
					once.Do(func() { first = err; failed.Store(true) })
				}
				if failed.Load() {
					return
				}
				if i = int(next.Add(1) - 1); i >= n {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}
