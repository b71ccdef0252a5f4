// Package ckpt is the prefix-checkpoint store: it persists engine
// snapshots taken at sampling-window boundaries and forks later runs
// from the deepest compatible one, making cold sweeps sub-linear.
//
// The insight it monetizes lives in spec.RunSpec.PrefixCanonical:
// nothing in the engine reads TotalCycles except the cycle-loop bound,
// so every run in a grid sweep that differs only in horizon executes
// the same deterministic prefix bit-for-bit. A checkpoint written at
// window w of one such run is therefore a valid fork point for all of
// them: restore, run the remaining cycles, and the Result is exactly
// what an uninterrupted run would have produced (proven by the golden
// bit-identity suite in internal/sim).
//
// Failure handling is a degradation ladder, never an abort and never a
// wrong result: a torn or corrupt envelope is skipped in favour of the
// next-deepest checkpoint; no usable checkpoint is a miss; a payload
// that fails to restore falls back to a fresh (cold) simulator; a
// snapshot that cannot be taken disables further writes for that run;
// a write that cannot be persisted is retried, then warned and
// counted. The store shares simcache's failure handling: writes go
// through simcache.WriteAtomic, retries through resilience.Retry, and
// warnings through simcache.Warnf.
package ckpt

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
)

// SchemaVersion is the EBCK format's one version number: the envelope
// header carries it and the prefix key folds it in, so bumping it
// invalidates every existing checkpoint. Bump it when the envelope
// layout or the key derivation changes. Engine changes are already
// covered: the prefix key also folds in simcache.SchemaVersion (bumped
// with the goldens) and sim.SnapshotVersion (bumped with the engine's
// encoded state), so a store written by an older engine misses, and Open
// removes its files (see derivation).
const SchemaVersion = 4

// DefaultEvery is the write cadence: one checkpoint every this many
// sampling windows (plus the run-end window, which makes re-running
// the same spec at the same horizon near-free).
const DefaultEvery = 4

// PrefixKey returns the content address of a run's deterministic
// prefix: simcache.HashRun, the encoder behind simcache.Key, of the
// prefix-canonical spec (the canonical form with TotalCycles cleared)
// under the three versions. Two
// runs with equal prefix keys execute bit-identically up to the shorter
// horizon, so they share checkpoints.
func PrefixKey(rs spec.RunSpec) string {
	return prefixKeyAt(rs, sim.SnapshotVersion)
}

// prefixKeyAt is PrefixKey for an engine whose snapshot layout is
// snapshotVersion.
func prefixKeyAt(rs spec.RunSpec, snapshotVersion int) string {
	return simcache.HashRun(rs.PrefixCanonical(),
		simcache.SchemaVersion, // engine behaviour
		SchemaVersion,          // this package's layout and key derivation
		snapshotVersion,        // sim.SnapshotVersion: the payload's layout
	)
}

// On-disk envelope ("EBCK" format, documented in DESIGN.md §11):
//
//	magic "EBCK" | derivation (3 × u8) | key len u8 | key bytes |
//	window u64 BE | payload len u64 BE | payload | FNV-1a u64 BE
//
// The trailing checksum covers every preceding byte, so a torn rename
// target, truncated file, or bit flip decodes as corrupt — which the
// ladder treats as "try the next-deepest checkpoint".
const envelopeMagic = "EBCK"

// derivation is the header's version triple: SchemaVersion,
// simcache.SchemaVersion and sim.SnapshotVersion, the three versions
// PrefixKey folds in. A file whose header carries any other triple was
// written under another key derivation and is never read again.
var derivation = [3]byte{SchemaVersion, simcache.SchemaVersion, sim.SnapshotVersion}

// headerLen is the length of the magic and the derivation.
const headerLen = len(envelopeMagic) + len(derivation)

func encodeEnvelope(key string, window uint64, payload []byte) []byte {
	b := make([]byte, 0, headerLen+1+len(key)+16+len(payload)+8)
	b = append(b, envelopeMagic...)
	b = append(b, derivation[:]...)
	b = append(b, byte(len(key)))
	b = append(b, key...)
	b = binary.BigEndian.AppendUint64(b, window)
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	h := fnv.New64a()
	h.Write(b)
	return binary.BigEndian.AppendUint64(b, h.Sum64())
}

// foreign reports whether a header was written under another key
// derivation: the magic matches and the version triple does not.
func foreign(header []byte) bool {
	return len(header) >= headerLen && string(header[:4]) == envelopeMagic &&
		string(header[4:headerLen]) != string(derivation[:])
}

func decodeEnvelope(b []byte) (key string, window uint64, payload []byte, err error) {
	fail := func(why string) (string, uint64, []byte, error) {
		return "", 0, nil, fmt.Errorf("ckpt: corrupt envelope: %s", why)
	}
	if len(b) < headerLen+1+16+8 {
		return fail("short file")
	}
	if string(b[:4]) != envelopeMagic {
		return fail("bad magic")
	}
	if foreign(b) {
		return fail(fmt.Sprintf("derivation %v", b[4:headerLen]))
	}
	h := fnv.New64a()
	h.Write(b[:len(b)-8])
	if binary.BigEndian.Uint64(b[len(b)-8:]) != h.Sum64() {
		return fail("checksum mismatch")
	}
	keyLen := int(b[headerLen])
	rest := b[headerLen+1 : len(b)-8]
	if len(rest) < keyLen+16 {
		return fail("short header")
	}
	key = string(rest[:keyLen])
	rest = rest[keyLen:]
	window = binary.BigEndian.Uint64(rest[:8])
	plen := binary.BigEndian.Uint64(rest[8:16])
	rest = rest[16:]
	if uint64(len(rest)) != plen {
		return fail("payload length mismatch")
	}
	return key, window, rest, nil
}

// Stats is a point-in-time snapshot of one store handle's traffic.
type Stats struct {
	Hits         uint64 // lookups that found a usable checkpoint
	Misses       uint64 // lookups with no usable checkpoint
	Writes       uint64 // checkpoints persisted
	Forks        uint64 // runs started from a restored checkpoint
	Corrupt      uint64 // unreadable/torn/foreign entries skipped
	WriteFails   uint64 // persist attempts that failed after retries
	Evictions    uint64 // files removed to honour the byte cap, or by Open as foreign
	BytesWritten uint64 // envelope bytes persisted
}

// Store is a directory of checkpoint files, one per (prefix, window).
// All methods are safe for concurrent use and nil-safe: a nil *Store
// misses every lookup and drops every write, so call sites need no
// "is checkpointing on?" branches.
type Store struct {
	dir      string
	every    uint64 // write cadence in windows; 0 = read-only
	maxBytes int64  // on-disk budget; 0 = unbounded

	hits, misses, writes, forks, corrupt, writeFails, evictions, bytesWritten atomic.Uint64

	// Optional observability handles (nil-safe), set via Instrument.
	hitC, missC, forkC, evictC, bytesC *obs.Counter

	// Resilience wiring, set before use via SetHooks / SetMonitor.
	hooks faultinject.Hooks
	mon   *resilience.Monitor

	group runner.Group // concurrent forks from one prefix share each read
	mu    sync.Mutex   // serializes write+evict so the cap is an invariant
}

// Open returns a store rooted at dir, creating it if needed, with the
// default write cadence. It removes, as evictions, the files written under
// another key derivation, which this build never reads; a file too short
// for a header, or without the magic, is left to the read ladder.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	st := &Store{dir: dir, every: DefaultEvery}
	ents, _ := os.ReadDir(dir) // unreadable: nothing to reclaim
	header := make([]byte, headerLen)
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		n, _ := io.ReadFull(f, header)
		f.Close()
		if foreign(header[:n]) && os.Remove(f.Name()) == nil {
			st.evictions.Add(1)
		}
	}
	return st, nil
}

// Dir returns the store root ("" for a nil store).
func (st *Store) Dir() string {
	if st == nil {
		return ""
	}
	return st.dir
}

// SetEvery sets the write cadence: a checkpoint every n sampling
// windows (plus the run-end window). n == 0 makes the store read-only:
// existing checkpoints still serve forks, nothing new is written.
// Call before submitting work.
func (st *Store) SetEvery(n uint64) {
	if st == nil {
		return
	}
	st.every = n
}

// SetMaxBytes caps the store's on-disk footprint. After every write the
// oldest files (by modification time) are evicted until the total fits;
// 0 means unbounded. Call before submitting work.
func (st *Store) SetMaxBytes(n int64) {
	if st == nil {
		return
	}
	st.maxBytes = n
}

// SetHooks installs the fault-injection seam (the chaos tests). Call
// before submitting work; nil is the production default.
func (st *Store) SetHooks(h faultinject.Hooks) {
	if st == nil {
		return
	}
	st.hooks = h
}

// SetMonitor installs the incident monitor that counts persist
// retries; nil discards incidents. Call before submitting work.
func (st *Store) SetMonitor(mon *resilience.Monitor) {
	if st == nil {
		return
	}
	st.mon = mon
}

// Stats returns the handle's traffic counters.
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	return Stats{
		Hits:         st.hits.Load(),
		Misses:       st.misses.Load(),
		Writes:       st.writes.Load(),
		Forks:        st.forks.Load(),
		Corrupt:      st.corrupt.Load(),
		WriteFails:   st.writeFails.Load(),
		Evictions:    st.evictions.Load(),
		BytesWritten: st.bytesWritten.Load(),
	}
}

// Instrument mirrors the store's traffic into an obs registry:
// ebm_ckpt_hits_total, ebm_ckpt_misses_total, ebm_ckpt_forks_total,
// ebm_ckpt_write_evictions_total, and ebm_ckpt_bytes_written_total.
func (st *Store) Instrument(reg *obs.Registry) {
	if st == nil || reg == nil {
		return
	}
	st.hitC = reg.Counter("ebm_ckpt_hits_total", "runs served a fork point from the checkpoint store")
	st.missC = reg.Counter("ebm_ckpt_misses_total", "checkpoint lookups that fell through to cold execution")
	st.forkC = reg.Counter("ebm_ckpt_forks_total", "simulations forked from a restored checkpoint")
	st.evictC = reg.Counter("ebm_ckpt_write_evictions_total", "checkpoint files evicted to honour the byte cap")
	st.bytesC = reg.Counter("ebm_ckpt_bytes_written_total", "checkpoint envelope bytes persisted")
	st.hitC.Set(st.hits.Load())
	st.missC.Set(st.misses.Load())
	st.forkC.Set(st.forks.Load())
	st.evictC.Set(st.evictions.Load())
	st.bytesC.Set(st.bytesWritten.Load())
}

// Path returns the checkpoint file for a (prefix, window) pair.
func (st *Store) Path(key string, window uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s-w%06d.ckpt", key, window))
}

// Put persists a snapshot payload under (key, window): wrapped in the
// checksummed envelope and written through simcache.WriteAtomic. Writes
// are put-if-absent — checkpoints are deterministic functions of their
// key, so an existing file is already correct — and each write is
// followed by the eviction pass, so the byte cap holds as an invariant
// on return (the just-written file itself is evictable when the cap
// demands it).
func (st *Store) Put(key string, window uint64, payload []byte) error {
	if st == nil {
		return nil
	}
	name := st.Path(key, window)
	if h := st.hooks; h != nil {
		if err := h.CacheWrite(filepath.Base(name)); err != nil {
			return fmt.Errorf("ckpt: write %s: %w", filepath.Base(name), err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := os.Stat(name); err == nil {
		return nil
	}
	b := encodeEnvelope(key, window, payload)
	if err := simcache.WriteAtomic(name, b); err != nil {
		return fmt.Errorf("ckpt: write %s: %w", filepath.Base(name), err)
	}
	st.writes.Add(1)
	st.bytesWritten.Add(uint64(len(b)))
	st.bytesC.Add(uint64(len(b)))
	st.evictLocked()
	return nil
}

// evictLocked removes the oldest checkpoint files until the store fits
// its byte budget. Caller holds st.mu.
func (st *Store) evictLocked() {
	if st.maxBytes <= 0 {
		return
	}
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	type file struct {
		name string
		size int64
		mod  int64
	}
	var files []file
	var total int64
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, file{e.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name // deterministic among same-instant writes
	})
	for _, f := range files {
		if total <= st.maxBytes {
			return
		}
		if os.Remove(filepath.Join(st.dir, f.name)) == nil {
			total -= f.size
			st.evictions.Add(1)
			st.evictC.Inc()
		}
	}
}

// Best returns the payload of the deepest usable checkpoint for key at
// or before maxWindow. Candidates are tried deepest-first; a torn,
// corrupt, or foreign file is counted and skipped in favour of the next
// one (the degradation ladder), and exhausting them is a miss.
// Concurrent callers asking for the same file share one read.
func (st *Store) Best(key string, maxWindow uint64) (payload []byte, window uint64, ok bool) {
	return st.best(context.Background(), key, maxWindow)
}

// best is Best with the caller's context, whose provenance trail
// records injected read faults and whose tracer times the ladder walk.
func (st *Store) best(ctx context.Context, key string, maxWindow uint64) (payload []byte, window uint64, ok bool) {
	if st == nil {
		return nil, 0, false
	}
	_, sp := obs.StartSpan(ctx, "ckpt.best", obs.A("key", key))
	defer sp.End()
	type cand struct {
		name   string
		window uint64
	}
	var cands []cand
	ents, err := os.ReadDir(st.dir)
	if err == nil {
		prefix := key + "-w"
		for _, e := range ents {
			name := e.Name()
			if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".ckpt") {
				continue
			}
			w, err := strconv.ParseUint(strings.TrimSuffix(name[len(prefix):], ".ckpt"), 10, 64)
			if err != nil || w > maxWindow {
				continue
			}
			cands = append(cands, cand{name, w})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].window > cands[j].window })
	for _, c := range cands {
		if h := st.hooks; h != nil {
			if err := h.CacheRead(c.name); err != nil {
				obs.TrailFrom(ctx).AddFault("ckpt-read")
				st.corrupt.Add(1)
				continue
			}
		}
		full := filepath.Join(st.dir, c.name)
		v, _, err := st.group.Do("read:"+c.name, func() (any, error) {
			return os.ReadFile(full)
		})
		if err != nil {
			continue // raced with eviction: not corruption, just gone
		}
		gotKey, gotWindow, p, err := decodeEnvelope(v.([]byte))
		if err != nil || gotKey != key || gotWindow != c.window {
			st.corrupt.Add(1)
			continue
		}
		st.hits.Add(1)
		st.hitC.Inc()
		sp.Annotate("window", strconv.FormatUint(c.window, 10))
		return p, c.window, true
	}
	sp.Annotate("miss", "true")
	st.misses.Add(1)
	st.missC.Inc()
	return nil, 0, false
}

// persist writes a snapshot through resilience.Retry; exhausting the
// retries degrades to an unpersisted checkpoint with a surfaced warning
// and a counted write failure — the simulation itself is untouched.
func (st *Store) persist(ctx context.Context, key string, window uint64, payload []byte) {
	err := resilience.Retry(ctx, fmt.Sprintf("ckpt:%s:w%d", key, window), st.mon, func() error {
		return st.Put(key, window, payload)
	})
	if err != nil {
		obs.TrailFrom(ctx).AddFault("ckpt-write")
		st.writeFails.Add(1)
		simcache.Warnf("ckpt: warning: checkpoint %s w%d not persisted: %v", key, window, err)
	}
}

// sink builds the engine's CkptSink for one run: snapshot at every
// every-th window boundary plus the run-end boundary, skipping windows
// whose file already exists (put-if-absent means the snapshot encode
// cost is skipped too). A snapshot failure propagates, which makes the
// engine disable the sink for the rest of the run; a persist failure
// does not — the store absorbs it as a counted, warned degradation.
func (st *Store) sink(ctx context.Context, key string, totalWindows, every uint64) func(uint64, *sim.Simulator) error {
	return func(window uint64, s *sim.Simulator) error {
		if window%every != 0 && window != totalWindows {
			return nil
		}
		if _, err := os.Stat(st.Path(key, window)); err == nil {
			return nil
		}
		payload, err := s.SnapshotBytes()
		if err != nil {
			return err
		}
		st.persist(ctx, key, window, payload)
		return nil
	}
}

// Execute runs a declarative run description through the checkpoint
// store: fork from the deepest usable checkpoint of the run's prefix
// when one exists, execute cold otherwise, and (unless the store is
// read-only) leave checkpoints behind for the next run that shares the
// prefix. A nil store is plain sim.Execute. Every rung of the failure
// ladder lands on a correct result: a checkpoint whose payload fails to
// restore falls back to a fresh simulator, and a run whose manager
// cannot snapshot simply stops writing.
func Execute(ctx context.Context, st *Store, rs spec.RunSpec) (sim.Result, error) {
	return ExecuteWith(ctx, st, rs, nil)
}

// ExecuteWith is Execute with a hook for adjusting the engine options
// after FromSpec (a dsweep worker wraps OnWindow this way, to report
// progress and forward a test's injected window stalls). mutate runs
// before the checkpoint sink is attached and must not install its own
// CkptSink. A nil store still applies mutate and executes cold.
func ExecuteWith(ctx context.Context, st *Store, rs spec.RunSpec, mutate func(*sim.Options)) (sim.Result, error) {
	every := uint64(0)
	if st != nil {
		every = st.every
	}
	return executeCadence(ctx, st, rs, mutate, every)
}

// executeCadence is ExecuteWith with an explicit write cadence for this
// run (0 disables writes; restores are unaffected).
func executeCadence(ctx context.Context, st *Store, rs spec.RunSpec, mutate func(*sim.Options), every uint64) (sim.Result, error) {
	opts, err := sim.FromSpec(rs)
	if err != nil {
		return sim.Result{}, err
	}
	if mutate != nil {
		mutate(&opts)
	}
	if st == nil {
		s, err := sim.New(opts)
		if err != nil {
			return sim.Result{}, err
		}
		_, ssp := obs.StartSpan(ctx, "simulate", obs.A("from", "cold"))
		defer ssp.End()
		return s.RunContext(ctx)
	}
	key := PrefixKey(rs)
	wc := opts.WindowCycles
	if wc == 0 {
		wc = sim.DefaultWindowCycles
	}
	totalWindows := rs.TotalCycles / wc
	if every != 0 {
		opts.CkptSink = st.sink(ctx, key, totalWindows, every)
	}
	s, err := sim.New(opts)
	if err != nil {
		return sim.Result{}, err
	}
	from := "cold"
	if payload, window, ok := st.best(ctx, key, totalWindows); ok {
		if rerr := s.RestoreBytes(payload); rerr != nil {
			// The envelope was intact but the payload was not (or came
			// from an incompatible engine): the simulator may be half
			// restored, so rebuild it and run cold.
			obs.TrailFrom(ctx).AddFault("ckpt-restore")
			st.corrupt.Add(1)
			s, err = sim.New(opts)
			if err != nil {
				return sim.Result{}, err
			}
		} else {
			st.forks.Add(1)
			st.forkC.Inc()
			obs.TrailFrom(ctx).SetForked(window, SchemaVersion)
			from = fmt.Sprintf("forked@%d", window)
		}
	}
	_, ssp := obs.StartSpan(ctx, "simulate", obs.A("from", from))
	defer ssp.End()
	return s.RunContext(ctx)
}

// Runner adapts a store to simcache.RunCached's run override: the
// returned closure executes rs through the store. A nil store returns
// nil, which RunCached treats as "execute the spec directly" — so call
// sites thread the store through unconditionally.
func Runner(st *Store, rs spec.RunSpec) func(context.Context) (sim.Result, error) {
	if st == nil {
		return nil
	}
	return func(ctx context.Context) (sim.Result, error) {
		return Execute(ctx, st, rs)
	}
}

// RungRunner is Runner specialized for one rung of a successive-halving
// search: it forks from the deepest prefix checkpoint like Runner, but
// writes only the rung's run-end snapshot — the single fork point the
// next rung continues from — instead of the store's periodic cadence.
// final marks the last rung, which no continuation follows: it forks
// but writes nothing. A read-only store (SetEvery(0)) writes nothing
// either way, and a nil store returns nil like Runner.
func RungRunner(st *Store, rs spec.RunSpec, final bool) func(context.Context) (sim.Result, error) {
	if st == nil {
		return nil
	}
	return func(ctx context.Context) (sim.Result, error) {
		every := ^uint64(0) // no periodic writes: only the run-end window fires
		if final || st.every == 0 {
			every = 0
		}
		return executeCadence(ctx, st, rs, nil, every)
	}
}
