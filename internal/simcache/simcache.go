// Package simcache is a versioned, content-addressed on-disk cache for
// simulation results. A run is identified by a fingerprint of its
// canonical spec.RunSpec — the machine configuration, the applications,
// the scheme with every knob explicit, and the run lengths — so grid
// cells, evaluation runs, and alone profiles persist across processes:
// an interrupted sweep resumes where it stopped and a warm paperfigs run
// replays from disk instead of re-simulating. Because the key is the
// canonical spec rather than a manager name string, any knobbed
// manager the registry can build is cacheable, and equivalent requests
// (++maxTLP vs the static combination it executes as, a labeled alone
// run vs the same static run) deduplicate onto one entry.
//
// The cycle engine is deterministic (pinned by the golden bit-identity
// tests in internal/sim), and sim.Result round-trips JSON exactly (Go
// encodes float64 with the shortest form that parses back to the same
// bits), so a cached result is bit-identical to a fresh computation —
// test-enforced here and in internal/search.
//
// Invalidation is by key, never by mutation: the key embeds
// SchemaVersion, which MUST be bumped whenever engine behaviour changes
// (the same commits that regenerate internal/sim's golden files), and
// every behavioural knob of the run. Writes go through WriteAtomic (a
// temp file and an atomic rename); reads tolerate corruption (a
// truncated, garbled, or foreign-schema entry is a miss, never an
// error), so a killed process cannot poison the cache.
package simcache

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/spec"
)

// Warnf surfaces non-fatal degradation: a computed result or a
// checkpoint that could not be persisted, a distributed-sweep state or
// ledger write that failed. Stderr by default; replaceable for tests and
// embedding.
var Warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// SchemaVersion invalidates every existing cache entry when bumped. Bump
// it whenever the cycle engine's behaviour changes — i.e. in the same
// change that regenerates the golden bit-identity files — or when the
// key derivation or entry layout changes.
//
// History: 1 keyed runs by manager name strings; 2 by the canonical
// spec.RunSpec's JSON; 3 by a binary walk of it (HashRun), with results
// that carry their policy's decision record.
const SchemaVersion = 3

// HashJSON fingerprints any plain data value as FNV-1a over its JSON
// encoding, rendered as 16 hex digits; values must marshal cleanly
// (plain config/parameter structs always do). Run keys are HashRun's;
// HashJSON is kept for the benchmark's result digest.
func HashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data structs always marshal
	}
	return sum64(b)
}

// sum64 renders FNV-1a (64-bit) over b as 16 hex digits. Its offset
// basis, 1469598103934665603, is not FNV's standard 14695981039346656037
// (a digit short); every key on disk depends on it, so it stays.
func sum64(b []byte) string {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	var sum [8]byte
	var digits [16]byte
	binary.BigEndian.PutUint64(sum[:], h)
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// Key returns a run's content address under the current schema:
// HashRun of the canonical spec under SchemaVersion. Canonicalization (spec.RunSpec.Canonical) is what makes
// equivalent requests — scheme aliases, display labels, knobs stated at
// their defaults — share one entry.
func Key(rs spec.RunSpec) string {
	return HashRun(rs.Canonical(), SchemaVersion)
}

// entry is the on-disk layout: the schema and key are stored alongside
// the result so a renamed, truncated, or stale file can never be
// mistaken for a hit.
type entry struct {
	Schema int        `json:"schema"`
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// Stats is a point-in-time snapshot of one cache handle's traffic.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writes     uint64
	Corrupt    uint64 // misses caused by unreadable/foreign entries
	WriteFails uint64 // persist attempts that failed (results still served)
}

// Cache is a directory of result entries, one file per key. All methods
// are safe for concurrent use and nil-safe: a nil *Cache misses every
// Get and drops every Put, so call sites need no "is caching on?"
// branches.
type Cache struct {
	dir string

	hits, misses, writes, corrupt, writeFails atomic.Uint64

	// Optional observability handles (nil-safe), set via Instrument.
	hitC, missC, writeC, writeFailC *obs.Counter

	// Resilience wiring, set before use via SetHooks / SetMonitor: hooks
	// is the fault-injection seam (nil in production), mon the incident
	// sink (nil discards).
	hooks faultinject.Hooks
	mon   *resilience.Monitor

	// ledger, when set via SetLedger, receives one provenance record per
	// completed RunCached call (nil-safe).
	ledger *obs.Ledger
}

// SetLedger installs the run-provenance ledger: every completed
// RunCached call through this handle appends one RunRecord describing
// how the run was satisfied (cached / forked@depth / cold), its retries
// and injected faults, and its cost. Call before submitting work; nil
// is the default (no provenance).
func (c *Cache) SetLedger(l *obs.Ledger) {
	if c == nil {
		return
	}
	c.ledger = l
}

// Ledger returns the installed provenance ledger (nil when provenance
// is off or the cache handle is nil).
func (c *Cache) Ledger() *obs.Ledger {
	if c == nil {
		return nil
	}
	return c.ledger
}

// SetHooks installs the fault-injection seam (the chaos tests). Call
// before submitting work; nil is the production default.
func (c *Cache) SetHooks(h faultinject.Hooks) {
	if c == nil {
		return
	}
	c.hooks = h
}

// SetMonitor installs the incident monitor that counts persist retries
// and cancelled runs; nil discards incidents. Call before submitting
// work.
func (c *Cache) SetMonitor(mon *resilience.Monitor) {
	if c == nil {
		return
	}
	c.mon = mon
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Path returns the entry file for a key.
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached result for key, if a valid entry exists.
func (c *Cache) Get(key string) (sim.Result, bool) {
	return c.get(context.Background(), key, true)
}

// get is Get with the miss counting optional (RunCached's inner
// re-check would otherwise record a second miss for every simulation it
// runs) and with the caller's context, whose provenance trail records
// injected read faults.
func (c *Cache) get(ctx context.Context, key string, countMiss bool) (sim.Result, bool) {
	if c == nil {
		return sim.Result{}, false
	}
	if h := c.hooks; h != nil {
		if err := h.CacheRead(key); err != nil {
			// An unreadable entry degrades exactly like a corrupt one: a
			// counted miss that falls through to direct execution.
			obs.TrailFrom(ctx).AddFault("cache-read")
			c.corrupt.Add(1)
			if countMiss {
				c.misses.Add(1)
				c.missC.Inc()
			}
			return sim.Result{}, false
		}
	}
	bp := bufs.Get().(*[]byte)
	defer bufs.Put(bp)
	b, err := readFile(c.Path(key), *bp)
	*bp = b
	if err != nil {
		if countMiss {
			c.misses.Add(1)
			c.missC.Inc()
		}
		return sim.Result{}, false
	}
	e, err := decodeEntry(b)
	if err != nil || e.Schema != SchemaVersion || e.Key != key {
		c.corrupt.Add(1)
		if countMiss {
			c.misses.Add(1)
			c.missC.Inc()
		}
		return sim.Result{}, false
	}
	c.hits.Add(1)
	c.hitC.Inc()
	return e.Result, true
}

// readChunk is how much room readFile makes whenever its buffer is full.
const readChunk = 4096

// readFile reads the file at path into b's backing array, growing it as
// needed, and returns the file's bytes. It makes only the open, read and
// close system calls: an *os.File would add, for each entry read, the
// non-blocking mode toggles, the failing poller registration and the
// finalizer it sets up for every regular file.
func readFile(path string, b []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return b[:0], err
	}
	defer syscall.Close(fd)
	b = b[:0]
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, readChunk)
		}
		n, err := syscall.Read(fd, b[len(b):cap(b)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return b, err
		case n == 0:
			return b, nil
		default:
			b = b[:len(b)+n]
		}
	}
}

// Put persists a result under key through WriteAtomic, so concurrent
// writers and killed processes leave either the old entry or the new
// one, never a torn file.
func (c *Cache) Put(key string, r sim.Result) error {
	if c == nil {
		return nil
	}
	if h := c.hooks; h != nil {
		if err := h.CacheWrite(key); err != nil {
			return fmt.Errorf("simcache: write %s: %w", key, err)
		}
	}
	b, err := json.Marshal(entry{Schema: SchemaVersion, Key: key, Result: r})
	if err != nil {
		return fmt.Errorf("simcache: marshal %s: %w", key, err)
	}
	if err := WriteAtomic(c.Path(key), b); err != nil {
		return fmt.Errorf("simcache: write %s: %w", key, err)
	}
	c.writes.Add(1)
	c.writeC.Inc()
	return nil
}

// WriteAtomic writes b to path through a temp file created beside it (in
// path's directory, never in $TMPDIR, so the rename stays on one file
// system) and renamed into place: a reader sees the old file or the new
// one, never a torn one. The temp file is removed on any failure. It is
// the one writer behind the result cache, the checkpoint store and the
// distributed-sweep state file.
func WriteAtomic(path string, b []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Len counts valid-looking entries on disk (files named <key>.json).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}

// Stats returns this handle's hit/miss/write counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Writes:     c.writes.Load(),
		Corrupt:    c.corrupt.Load(),
		WriteFails: c.writeFails.Load(),
	}
}

// Instrument mirrors the cache's traffic into an obs registry:
// ebm_simcache_hits_total, ebm_simcache_misses_total,
// ebm_simcache_writes_total, and ebm_simcache_write_fails_total.
func (c *Cache) Instrument(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.hitC = reg.Counter("ebm_simcache_hits_total", "simulation results served from the on-disk cache")
	c.missC = reg.Counter("ebm_simcache_misses_total", "cache lookups that fell through to simulation")
	c.writeC = reg.Counter("ebm_simcache_writes_total", "simulation results persisted to the cache")
	c.writeFailC = reg.Counter("ebm_simcache_write_fails_total", "results computed but not persisted after retries")
	c.hitC.Set(c.hits.Load())
	c.missC.Set(c.misses.Load())
	c.writeC.Set(c.writes.Load())
	c.writeFailC.Set(c.writeFails.Load())
}

// persist writes a computed result through resilience.Retry; exhausting
// the retries degrades to an uncached (but still returned) result with a
// surfaced warning and a counted write failure — never an aborted run.
func (c *Cache) persist(ctx context.Context, key string, r sim.Result) {
	if c == nil {
		return
	}
	err := resilience.Retry(ctx, "simcache:"+key, c.mon, func() error {
		return c.Put(key, r)
	})
	if err != nil {
		obs.TrailFrom(ctx).AddFault("cache-write")
		c.writeFails.Add(1)
		c.writeFailC.Inc()
		Warnf("simcache: warning: result %s computed but not persisted: %v", key, err)
	}
}

// LedgerRecord folds one completed run, keyed key (its Key), into its
// provenance record. Callers that execute for someone else (a dsweep
// worker) set Worker on the result.
func LedgerRecord(rs spec.RunSpec, key string, trail *obs.Trail, res sim.Result, wall time.Duration) obs.RunRecord {
	names := make([]string, len(rs.Apps))
	for i := range rs.Apps {
		names[i] = rs.Apps[i].Name
	}
	rec := obs.RunRecord{
		CacheSchema: SchemaVersion,
		Fingerprint: key,
		Scheme:      rs.Scheme.String(),
		Apps:        strings.Join(names, "_"),
		Cycles:      res.Cycles,
		WallNs:      wall.Nanoseconds(),
	}
	trail.Fill(&rec)
	return rec
}

// RunCached executes a simulation through the shared layers: serve from
// the cache when possible, otherwise submit to the pool (the Default
// pool when r is nil) with singleflight on the spec key — identical
// concurrent requests share one execution — and persist the result.
// run overrides the execution (tests, custom assembly); nil executes
// the spec itself (sim.Execute), which is the normal path. The context
// cancels cooperatively: the wait, the simulation (at its next window
// boundary), and the retry sleeps all observe it, and a cancelled run is
// counted on the cache's resilience monitor. Cache write failures are
// retried (resilience.Retry) and then deliberately non-fatal (the
// result is still perfectly good); they surface through Warnf, Stats,
// and the instrumented counters instead.
func RunCached(ctx context.Context, c *Cache, r *runner.Runner, pri int, rs spec.RunSpec, run func(context.Context) (sim.Result, error)) (sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := Key(rs)
	ctx, sp := obs.StartSpan(ctx, "run", obs.A("key", key))
	defer sp.End()
	if sp != nil {
		sp.Annotate("scheme", rs.Scheme.String()) // formatted only for a tracer
	}
	// The trail rides the run's context: the layers below (checkpoint
	// forking, retries, fault-injected I/O) mark what happened,
	// and the completed run folds it into one ledger record. A dedup
	// waiter's closure runs under the first submitter's context, so its
	// own trail stays un-executed and its record reads "cached" — one
	// honest record per RunCached call, one execution per singleflight.
	// A caller that already attached a trail (a dsweep worker deriving
	// the outcome it reports upstream) shares it instead of being
	// shadowed by a fresh one.
	var trail *obs.Trail
	if c.Ledger() != nil {
		if t := obs.TrailFrom(ctx); t != nil {
			trail = t
		} else {
			ctx, trail = obs.WithTrail(ctx)
		}
	}
	start := time.Now()
	gs := sp.Child("cache.get")
	if res, ok := c.get(ctx, key, true); ok {
		gs.End()
		sp.Annotate("outcome", obs.OutcomeCached)
		if trail != nil {
			c.ledger.Append(LedgerRecord(rs, key, trail, res, time.Since(start)))
		}
		return res, nil
	}
	gs.End()
	if run == nil {
		run = execute(rs)
	}
	if r == nil {
		r = runner.Default()
	}
	v, err := r.Do(ctx, "sim:"+key, pri, func() (any, error) {
		// A concurrent process (or a deduplicated predecessor in this
		// one) may have persisted the entry since the first lookup.
		if res, ok := c.get(ctx, key, false); ok {
			return res, nil
		}
		obs.TrailFrom(ctx).MarkExecuted()
		ectx, es := obs.StartSpan(ctx, "execute")
		res, err := run(ectx)
		es.End()
		if err != nil {
			return nil, err
		}
		_, ps := obs.StartSpan(ctx, "cache.put")
		c.persist(ctx, key, res)
		ps.End()
		return res, nil
	})
	if err != nil {
		sp.Annotate("error", err.Error())
		if c != nil && ctx.Err() != nil {
			c.mon.RunCancelled("sim:" + key)
		}
		return sim.Result{}, err
	}
	res := v.(sim.Result)
	if trail != nil {
		rec := LedgerRecord(rs, key, trail, res, time.Since(start))
		sp.Annotate("outcome", rec.OutcomeString())
		c.ledger.Append(rec)
	} else {
		sp.Annotate("outcome", "run")
	}
	return res, nil
}

// execute is RunCached's default run: the spec itself through
// sim.Execute. Building the closure here, and only on a miss, keeps a
// cache hit from moving RunCached's spec to the heap.
func execute(rs spec.RunSpec) func(context.Context) (sim.Result, error) {
	return func(ctx context.Context) (sim.Result, error) { return sim.Execute(ctx, rs) }
}
