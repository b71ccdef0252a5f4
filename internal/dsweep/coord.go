package dsweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/sim"
	"ebm/internal/simcache"
)

// StateSchemaVersion invalidates persisted coordinator checkpoints when
// the state-file layout changes.
const StateSchemaVersion = 1

// DefaultLeaseTTL is how long a lease survives without the worker
// showing progress before it expires. Production sweeps measure cells
// in seconds-to-minutes; chaos tests shrink it to milliseconds.
const DefaultLeaseTTL = 30 * time.Second

// Options configures a Coordinator.
type Options struct {
	// Cells is the sweep's work list. Cells sharing a fingerprint are
	// collapsed onto one: the fingerprint is the identity.
	Cells []Cell

	// Cache, when non-nil, is the coordinator's view of the shared
	// result store: cells already present are completed up front
	// (prewarm), and every accepted completion is persisted into it —
	// an idempotent put keyed by the fingerprint, so duplicates from
	// any source are harmless.
	Cache *simcache.Cache

	// StatePath, when non-empty, is the assignment-state checkpoint:
	// the fence counter and every completed result, rewritten
	// atomically on each transition so a restarted coordinator resumes
	// without re-running finished cells. A torn or foreign-schema file
	// is ignored (the sweep restarts from the cache prewarm instead).
	StatePath string

	// FenceBlock is how many fencing tokens are reserved (persisted to
	// the state checkpoint) ahead of demand. Durability requires the
	// persisted high-water mark to stay ahead of every token ever
	// granted — not that every grant hit the disk — so reserving in
	// blocks keeps the grant path free of I/O at the cost of burning at
	// most one block of token numbers per coordinator restart (fences
	// only need monotonicity; gaps are meaningless). Default 64.
	FenceBlock uint64

	// LeaseTTL is the no-progress deadline for a worker's leases; it
	// seeds each worker's resilience.Watchdog (default DefaultLeaseTTL)
	// and is what the lease deadline is "derived from the Watchdog
	// machinery" means: the coordinator reads the effective deadline
	// back off the watchdog it built.
	LeaseTTL time.Duration

	// HeartbeatEvery is the cadence workers are told to beat at
	// (default LeaseTTL/3, so two beats can be lost before expiry).
	HeartbeatEvery time.Duration

	// Version is the coordinator's build identity; a worker whose
	// handshake reports a different one is rejected.
	Version string

	// Journal receives one EvDsweep event per state transition;
	// Ledger receives the provenance record of every accepted
	// completion (worker-attributed); Registry mirrors the lease
	// lifecycle into counters and gauges. All nil-safe.
	Journal  *obs.Journal
	Ledger   *obs.Ledger
	Registry *obs.Registry

	// Mon receives watchdog-trip incidents (nil discards).
	Mon *resilience.Monitor
}

type cellStatus int

const (
	cellPending cellStatus = iota
	cellLeased
	cellDone
)

type cellState struct {
	cell    Cell
	status  cellStatus
	worker  string // current leaseholder (cellLeased)
	fence   uint64 // fencing token of the current/accepted lease
	expired bool   // a lease on this cell expired: next grant is a reassignment
	result  sim.Result
}

type workerState struct {
	id       string
	version  string
	wd       *resilience.Watchdog
	stopWd   context.CancelFunc
	progress uint64
	leases   map[string]uint64 // cell key -> fence
}

// Coordinator owns the sweep's authoritative state: the cell table,
// the worker roster with per-worker watchdogs, and the monotonic fence
// counter. All mutation happens under one mutex; the HTTP layer in
// server.go is a thin decode-call-encode shim over its methods.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	cells   map[string]*cellState
	order   []string // deterministic handout order (first-listed first)
	workers map[string]*workerState
	fence   uint64 // last token granted
	fenceHW uint64 // persisted reservation high-water mark (>= fence)
	doneN   int
	counts  Counts
	doneCh  chan struct{}

	grantedC, expiredC, reassignedC, fencedC *obs.Counter
	workersG, doneG, totalG                  *obs.Gauge
}

// New builds a coordinator over the given cells, restoring any
// persisted assignment state and prewarming completed cells from the
// shared cache. It is ready to serve immediately (see Handler).
func New(opts Options) (*Coordinator, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = opts.LeaseTTL / 3
	}
	if opts.FenceBlock == 0 {
		opts.FenceBlock = 64
	}
	c := &Coordinator{
		opts:    opts,
		cells:   make(map[string]*cellState, len(opts.Cells)),
		workers: make(map[string]*workerState),
		doneCh:  make(chan struct{}),
	}
	if reg := opts.Registry; reg != nil {
		c.grantedC = reg.Counter("ebm_dsweep_leases_granted_total", "cell leases handed to workers")
		c.expiredC = reg.Counter("ebm_dsweep_leases_expired_total", "leases expired by missed heartbeats or stalled progress")
		c.reassignedC = reg.Counter("ebm_dsweep_leases_reassigned_total", "expired cells re-granted to another worker")
		c.fencedC = reg.Counter("ebm_dsweep_fenced_rejects_total", "zombie completions rejected by the fencing-token check")
		c.workersG = reg.Gauge("ebm_dsweep_workers", "workers currently registered")
		c.doneG = reg.Gauge("ebm_dsweep_cells_done", "cells completed")
		c.totalG = reg.Gauge("ebm_dsweep_cells_total", "cells in this sweep")
	}
	for _, cl := range opts.Cells {
		if _, dup := c.cells[cl.Key]; dup {
			continue // the fingerprint is the identity; duplicates collapse
		}
		c.cells[cl.Key] = &cellState{cell: cl}
		c.order = append(c.order, cl.Key)
	}
	c.totalG.Set(float64(len(c.order)))

	if err := c.loadState(); err != nil {
		return nil, err
	}
	c.prewarm()
	c.mu.Lock()
	c.checkDoneLocked()
	c.mu.Unlock()
	return c, nil
}

func (c *Coordinator) journal(label string) {
	c.opts.Journal.Record(obs.Event{Kind: obs.EvDsweep, App: -1, Label: label})
}

// persisted coordinator checkpoint layout.
type stateFile struct {
	Schema int                   `json:"schema"`
	Fence  uint64                `json:"fence"`
	Done   map[string]sim.Result `json:"done"`
}

// loadState restores the fence and completed cells from StatePath.
// Unreadable or foreign state degrades to an empty one — the cache
// prewarm recovers most of the loss, and the fence restarts above any
// zombie's token because the checkpoint always carries the reservation
// high-water mark, never a smaller number.
func (c *Coordinator) loadState() error {
	if c.opts.StatePath == "" {
		return nil
	}
	b, err := os.ReadFile(c.opts.StatePath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("dsweep: state %s: %w", c.opts.StatePath, err)
	}
	var st stateFile
	if json.Unmarshal(b, &st) != nil || st.Schema != StateSchemaVersion {
		c.journal("state checkpoint unreadable; starting fresh")
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Resume from the reservation high-water mark: tokens in the dead
	// incarnation's unused tail of the block are skipped, which costs
	// nothing — monotonicity is the only property fences carry.
	c.fence = st.Fence
	c.fenceHW = st.Fence
	for key, res := range st.Done {
		cs, ok := c.cells[key]
		if !ok || cs.status == cellDone {
			continue
		}
		cs.status = cellDone
		cs.result = res
		c.doneN++
		c.counts.Resumed++
	}
	c.doneG.Set(float64(c.doneN))
	if c.counts.Resumed > 0 {
		c.journal(fmt.Sprintf("resumed %d completed cells from state checkpoint (fence %d)", c.counts.Resumed, c.fence))
	}
	return nil
}

// saveStateLocked atomically rewrites the checkpoint. Must hold c.mu.
// A failed write is surfaced but never fatal: the sweep's correctness
// does not depend on the checkpoint, only restart cost does.
func (c *Coordinator) saveStateLocked() {
	if c.opts.StatePath == "" {
		return
	}
	st := stateFile{Schema: StateSchemaVersion, Fence: c.fenceHW, Done: make(map[string]sim.Result, c.doneN)}
	for key, cs := range c.cells {
		if cs.status == cellDone {
			st.Done[key] = cs.result
		}
	}
	b, err := json.Marshal(st)
	if err != nil {
		return // plain data always marshals
	}
	if err := simcache.WriteAtomic(c.opts.StatePath, b); err != nil {
		simcache.Warnf("dsweep: state checkpoint: %v", err)
	}
}

// prewarm completes every pending cell the shared cache already holds:
// the whole point of a fingerprint-keyed store is that earlier sweeps
// (local or distributed) have already paid for some of this one.
func (c *Coordinator) prewarm() {
	if c.opts.Cache == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range c.order {
		cs := c.cells[key]
		if cs.status != cellPending {
			continue
		}
		if res, ok := c.opts.Cache.Get(key); ok {
			cs.status = cellDone
			cs.result = res
			c.doneN++
			c.counts.Prewarmed++
		}
	}
	c.doneG.Set(float64(c.doneN))
	c.saveStateLocked()
	if c.counts.Prewarmed > 0 {
		c.journal(fmt.Sprintf("prewarmed %d cells from the result cache", c.counts.Prewarmed))
	}
}

// Register admits a worker after the compatibility handshake. A worker
// re-registering under a live id replaces its old incarnation (which
// is then treated as expired — its leases return to the queue).
func (c *Coordinator) Register(h Hello) HelloReply {
	reject := func(format string, args ...any) HelloReply {
		msg := fmt.Sprintf(format, args...)
		c.journal(fmt.Sprintf("rejected worker %s: %s", h.Worker, msg))
		return HelloReply{Error: msg}
	}
	if h.Worker == "" {
		return reject("empty worker id")
	}
	if h.Wire != WireVersion {
		return reject("wire version %d, coordinator speaks %d", h.Wire, WireVersion)
	}
	if h.CacheSchema != simcache.SchemaVersion {
		return reject("simcache schema %d, coordinator uses %d — results would key differently", h.CacheSchema, simcache.SchemaVersion)
	}
	if h.CkptSchema != ckpt.SchemaVersion {
		return reject("ckpt schema %d, coordinator uses %d", h.CkptSchema, ckpt.SchemaVersion)
	}
	if c.opts.Version != "" && h.Version != c.opts.Version {
		return reject("build version %q, coordinator is %q — mixed builds void bit-identity", h.Version, c.opts.Version)
	}

	c.mu.Lock()
	if old, ok := c.workers[h.Worker]; ok {
		c.expireLocked(old, "replaced by re-registration")
	}
	ws := &workerState{id: h.Worker, version: h.Version, leases: make(map[string]uint64)}
	// The watchdog IS the lease deadline: no pulses (lost heartbeats or
	// stalled progress) for LeaseTTL trips it, expiring the worker.
	ws.wd = resilience.NewWatchdog(resilience.WatchdogOptions{
		Label:    "dsweep:" + h.Worker,
		Deadline: c.opts.LeaseTTL,
		Mon:      c.opts.Mon,
		OnTrip:   func() { c.expireWorker(h.Worker, "lease deadline expired") },
	})
	_, ws.stopWd = ws.wd.Guard(context.Background())
	c.workers[h.Worker] = ws
	c.workersG.Set(float64(len(c.workers)))
	c.mu.Unlock()
	c.journal(fmt.Sprintf("worker %s registered (%s)", h.Worker, h.Version))
	return HelloReply{
		OK:               true,
		HeartbeatEveryNs: int64(c.opts.HeartbeatEvery),
		LeaseTTLNs:       int64(ws.wd.Deadline()),
	}
}

// Lease hands the next pending cell to a worker under a fresh fencing
// token. The fence is persisted (state checkpoint) before the reply,
// so a coordinator restart can never re-issue a token a zombie still
// holds. known=false means the worker is not registered (its lease
// expired or the coordinator restarted) and must re-register.
func (c *Coordinator) Lease(req LeaseRequest) (reply LeaseReply, known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[req.Worker]
	if !ok {
		return LeaseReply{}, false
	}
	for _, key := range c.order {
		cs := c.cells[key]
		if cs.status != cellPending {
			continue
		}
		c.fence++
		// Fence durability before the token leaves: the checkpoint must
		// always hold a number no token ever exceeds. Reserving a block
		// at a time keeps this off the grant fast path — the save runs
		// once per FenceBlock grants, not once per grant.
		if c.fence > c.fenceHW {
			c.fenceHW = c.fence + c.opts.FenceBlock - 1
			c.saveStateLocked()
		}
		cs.status = cellLeased
		cs.worker = req.Worker
		cs.fence = c.fence
		ws.leases[key] = c.fence
		ws.wd.Pulse() // taking work is progress
		c.counts.Granted++
		c.grantedC.Inc()
		reassigned := cs.expired
		if reassigned {
			cs.expired = false
			c.counts.Reassigned++
			c.reassignedC.Inc()
		}
		what := "granted"
		if reassigned {
			what = "reassigned"
		}
		c.journal(fmt.Sprintf("lease %s: cell %s -> %s (fence %d)", what, key, req.Worker, cs.fence))
		return LeaseReply{Cell: &cs.cell, Fence: cs.fence}, true
	}
	if c.doneN == len(c.order) {
		return LeaseReply{Done: true}, true
	}
	return LeaseReply{Wait: true}, true
}

// Heartbeat records a worker's beacon. The watchdog is pulsed only
// when the reported progress advanced or the worker holds no lease —
// so a dead worker (no beats) and a wedged one (beats, no progress)
// expire identically.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[req.Worker]
	if !ok {
		return false
	}
	if req.Progress > ws.progress || len(ws.leases) == 0 {
		ws.wd.Pulse()
	}
	if req.Progress > ws.progress {
		ws.progress = req.Progress
	}
	return true
}

// Complete accepts a finished cell if — and only if — the reporting
// worker still holds the cell's current lease under the matching
// fencing token. Everything else (already-done cell, stale fence,
// unknown cell, forgotten worker) is a fenced reject: counted,
// journaled, harmless.
func (c *Coordinator) Complete(req CompleteRequest) CompleteReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	rejectLocked := func(reason string) CompleteReply {
		c.counts.FencedRejects++
		c.fencedC.Inc()
		c.journal(fmt.Sprintf("fenced reject: cell %s from %s (fence %d): %s", req.Key, req.Worker, req.Fence, reason))
		return CompleteReply{Reason: reason, Done: c.doneN == len(c.cells)}
	}
	cs, ok := c.cells[req.Key]
	if !ok {
		return rejectLocked("unknown cell")
	}
	if cs.status == cellDone {
		return rejectLocked("cell already completed")
	}
	if cs.status != cellLeased || cs.worker != req.Worker || cs.fence != req.Fence {
		return rejectLocked(fmt.Sprintf("stale lease (current fence %d held by %s)", cs.fence, cs.worker))
	}
	cs.status = cellDone
	cs.result = req.Result
	c.doneN++
	c.counts.Completed++
	c.doneG.Set(float64(c.doneN))
	if ws, ok := c.workers[req.Worker]; ok {
		delete(ws.leases, req.Key)
		ws.wd.Pulse()
	}
	// The cache put is idempotent (fingerprint-keyed, atomic rename):
	// the worker usually already persisted it; this makes the result
	// durable at the coordinator even when workers have private disks.
	if c.opts.Cache != nil {
		if err := c.opts.Cache.Put(req.Key, req.Result); err != nil {
			simcache.Warnf("dsweep: persist %s: %v", req.Key, err)
		}
	}
	if req.Record != nil {
		rec := *req.Record
		if rec.Worker == "" {
			rec.Worker = req.Worker
		}
		if err := c.opts.Ledger.Append(rec); err != nil {
			simcache.Warnf("dsweep: ledger: %v", err)
		}
	}
	c.saveStateLocked()
	c.journal(fmt.Sprintf("completed: cell %s by %s (fence %d)", req.Key, req.Worker, req.Fence))
	c.checkDoneLocked()
	return CompleteReply{Accepted: true, Done: c.doneN == len(c.cells)}
}

// Release returns an unstarted lease to the queue (graceful drain).
// Fence-checked like Complete: a stale release must not yank a cell
// that has since been re-leased to someone else.
func (c *Coordinator) Release(req ReleaseRequest) CompleteReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.cells[req.Key]
	if !ok || cs.status != cellLeased || cs.worker != req.Worker || cs.fence != req.Fence {
		return CompleteReply{Reason: "stale release"}
	}
	cs.status = cellPending
	cs.worker = ""
	c.counts.Released++
	if ws, ok := c.workers[req.Worker]; ok {
		delete(ws.leases, req.Key)
	}
	c.journal(fmt.Sprintf("lease released: cell %s by %s (fence %d)", req.Key, req.Worker, req.Fence))
	return CompleteReply{Accepted: true}
}

// Deregister removes a worker; any leases it still holds are returned
// to the queue as released (an orderly exit, not an expiry).
func (c *Coordinator) Deregister(req DeregisterRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[req.Worker]
	if !ok {
		return
	}
	for key, fence := range ws.leases {
		if cs, ok := c.cells[key]; ok && cs.status == cellLeased && cs.worker == ws.id && cs.fence == fence {
			cs.status = cellPending
			cs.worker = ""
			c.counts.Released++
			c.journal(fmt.Sprintf("lease released: cell %s by departing %s (fence %d)", key, ws.id, fence))
		}
	}
	c.removeLocked(ws)
	c.journal(fmt.Sprintf("worker %s deregistered", ws.id))
}

// expireWorker is the watchdog's trip action.
func (c *Coordinator) expireWorker(id, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[id]
	if !ok {
		return
	}
	c.expireLocked(ws, why)
}

// expireLocked returns every lease the worker holds to the queue
// (marked for reassignment accounting) and drops the worker. The
// worker itself is not told: its next coordinator contact gets a
// "who are you?" and re-registers — by which time its old fencing
// tokens are dead.
func (c *Coordinator) expireLocked(ws *workerState, why string) {
	for key, fence := range ws.leases {
		cs, ok := c.cells[key]
		if !ok || cs.status != cellLeased || cs.worker != ws.id || cs.fence != fence {
			continue
		}
		cs.status = cellPending
		cs.worker = ""
		cs.expired = true
		c.counts.Expired++
		c.expiredC.Inc()
		c.journal(fmt.Sprintf("lease expired: cell %s held by %s (fence %d): %s", key, ws.id, fence, why))
	}
	c.removeLocked(ws)
	c.journal(fmt.Sprintf("worker %s expired: %s", ws.id, why))
}

func (c *Coordinator) removeLocked(ws *workerState) {
	ws.stopWd()
	delete(c.workers, ws.id)
	c.workersG.Set(float64(len(c.workers)))
}

func (c *Coordinator) checkDoneLocked() {
	if c.doneN == len(c.order) {
		select {
		case <-c.doneCh:
		default:
			close(c.doneCh)
		}
	}
}

// Done is closed when every cell has completed.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Wait blocks until the sweep completes or ctx cancels.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Counts returns a snapshot of the lease-lifecycle tallies.
func (c *Coordinator) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Status returns the observable sweep state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{Total: len(c.order), Done: c.doneN, Workers: len(c.workers), Counts: c.counts}
	for _, cs := range c.cells {
		switch cs.status {
		case cellLeased:
			s.Leased++
		case cellPending:
			s.Pending++
		}
	}
	return s
}

// Results returns the completed per-cell results by fingerprint.
func (c *Coordinator) Results() map[string]sim.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]sim.Result, c.doneN)
	for key, cs := range c.cells {
		if cs.status == cellDone {
			out[key] = cs.result
		}
	}
	return out
}

// Close stops every worker watchdog. The coordinator keeps answering
// state queries but will no longer expire leases.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ws := range c.workers {
		ws.stopWd()
	}
}
