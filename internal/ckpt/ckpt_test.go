package ckpt

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"ebm/internal/config"
	"ebm/internal/faultinject"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

// testSpec is a mixed two-app PBS run on a reduced machine: large
// enough to exercise the search state machine across several windows,
// small enough that the suite forks and re-runs it many times.
func testSpec(total uint64) spec.RunSpec {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 2
	return spec.RunSpec{
		Config:             cfg,
		Apps:               workload.MustMake("BLK", "TRD").Apps,
		Scheme:             spec.PBS(metrics.ObjWS),
		TotalCycles:        total,
		WarmupCycles:       2_000,
		WindowCycles:       2_000,
		DesignatedSampling: true,
	}
}

func quietWarnf(t *testing.T) {
	t.Helper()
	old := simcache.Warnf
	simcache.Warnf = func(string, ...any) {}
	t.Cleanup(func() { simcache.Warnf = old })
}

func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names) // w%06d zero-pads, so lexicographic == by window
	return names
}

func TestPrefixKeySharedAcrossHorizons(t *testing.T) {
	k1 := PrefixKey(testSpec(12_000))
	if len(k1) != 16 {
		t.Fatalf("key %q not 16 hex digits", k1)
	}
	if k2 := PrefixKey(testSpec(99_000)); k2 != k1 {
		t.Fatalf("runs differing only in TotalCycles keyed apart: %s vs %s", k1, k2)
	}
	warm := testSpec(12_000)
	warm.WarmupCycles = 4_000
	if PrefixKey(warm) == k1 {
		t.Fatal("WarmupCycles must stay in the prefix key: the warmup accumulators are engine state")
	}
	sch := testSpec(12_000)
	sch.Scheme = spec.MaxTLP()
	if PrefixKey(sch) == k1 {
		t.Fatal("different schemes share a prefix key")
	}
}

// TestPrefixKeyGolden pins the prefix keys of simcache's TestKeyGolden
// runs. A failure here means every checkpoint on disk silently went
// cold: if the change is intentional, bump SchemaVersion in the same
// commit and repin.
func TestPrefixKeyGolden(t *testing.T) {
	app, _ := kernel.ByName("BLK")
	base := func(sch spec.SchemeSpec) spec.RunSpec {
		return spec.RunSpec{
			Config:       config.Default(),
			Apps:         []kernel.Params{app},
			Scheme:       sch,
			TotalCycles:  60_000,
			WarmupCycles: 10_000,
		}
	}
	ccwsKnobbed := spec.CCWS()
	ccwsKnobbed.CCWS.HighVTA = 0.2
	golden := []struct {
		name string
		rs   spec.RunSpec
		key  string
	}{
		{"static", base(spec.Static([]int{4}, nil)), "4a820ac3516cb4cb"},
		{"maxtlp", base(spec.MaxTLP()), "a28e2dcc69bd612f"},
		{"dyncta", base(spec.DynCTA()), "417aad778f16dfce"},
		{"ccws knobbed", base(ccwsKnobbed), "6f0a83820ed97595"},
		{"pbs-ws", base(spec.PBS(0)), "3f9f61b3bdf65550"},
	}
	for _, g := range golden {
		if k := PrefixKey(g.rs); k != g.key {
			t.Errorf("%s: prefix key %s, want %s", g.name, k, g.key)
		}
		// The key is the key walk of the prefix-canonical run under the
		// three versions.
		if k := simcache.HashRun(g.rs.PrefixCanonical(), simcache.SchemaVersion, SchemaVersion, sim.SnapshotVersion); k != g.key {
			t.Errorf("%s: HashRun of the prefix-canonical run %s, want %s", g.name, k, g.key)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("the quick brown snapshot")
	b := encodeEnvelope("0123456789abcdef", 42, payload)
	key, window, got, err := decodeEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if key != "0123456789abcdef" || window != 42 || string(got) != string(payload) {
		t.Fatalf("round trip lost data: key=%s window=%d payload=%q", key, window, got)
	}

	// Every corruption mode must decode as an error, never as data.
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"bit flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		},
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "NOPE")
			return c
		},
		"empty": func([]byte) []byte { return nil },
	} {
		if _, _, _, err := decodeEnvelope(mutate(append([]byte(nil), b...))); err == nil {
			t.Errorf("%s envelope decoded without error", name)
		}
	}
}

// TestExecuteForksBitIdentical is the store-level bit-identity contract:
// a run forked from a persisted checkpoint — at the same horizon or a
// longer one — must return exactly the Result of a cold run.
func TestExecuteForksBitIdentical(t *testing.T) {
	ctx := context.Background()
	rs := testSpec(12_000)
	golden, err := Execute(ctx, nil, rs) // nil store == plain cold execution
	if err != nil {
		t.Fatal(err)
	}

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetEvery(1)

	cold, err := Execute(ctx, st, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, golden) {
		t.Fatal("cold run through the store diverged from plain execution")
	}
	s := st.Stats()
	if s.Misses != 1 || s.Forks != 0 {
		t.Fatalf("cold run stats = %+v, want one miss and no forks", s)
	}
	if s.Writes == 0 || s.BytesWritten == 0 {
		t.Fatalf("cold run persisted nothing: %+v", s)
	}

	// Same horizon again: forks from the run-end checkpoint, executes
	// zero cycles, and must still reproduce the golden result exactly.
	again, err := Execute(ctx, st, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, golden) {
		t.Fatal("run-end fork diverged from golden")
	}
	s = st.Stats()
	if s.Hits != 1 || s.Forks != 1 {
		t.Fatalf("repeat run stats = %+v, want one hit and one fork", s)
	}

	// Longer horizon: shares the prefix, forks from the deepest
	// checkpoint, and simulates only the remaining cycles.
	long := testSpec(16_000)
	goldenLong, err := Execute(ctx, nil, long)
	if err != nil {
		t.Fatal(err)
	}
	forkedLong, err := Execute(ctx, st, long)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forkedLong, goldenLong) {
		t.Fatal("longer-horizon fork diverged from its cold run")
	}
	if s = st.Stats(); s.Forks != 2 {
		t.Fatalf("longer-horizon run did not fork: %+v", s)
	}
}

// TestCorruptCheckpointLadder pins the degradation ladder: a corrupt
// deepest checkpoint falls back to the next-deepest; all-corrupt falls
// back to cold; both still produce bit-identical results.
func TestCorruptCheckpointLadder(t *testing.T) {
	ctx := context.Background()
	rs := testSpec(12_000)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetEvery(1)
	golden, err := Execute(ctx, st, rs)
	if err != nil {
		t.Fatal(err)
	}
	files := ckptFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("prewarm wrote no checkpoints")
	}

	// Tear the deepest checkpoint: the fork must come from the next one.
	if err := os.WriteFile(files[len(files)-1], []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(ctx, st2, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, golden) {
		t.Fatal("fork from next-deepest checkpoint diverged")
	}
	if s := st2.Stats(); s.Corrupt == 0 || s.Forks != 1 {
		t.Fatalf("ladder stats = %+v, want a counted corrupt skip and one fork", s)
	}

	// Tear everything: the lookup is a miss and the run goes cold.
	for _, f := range files {
		if err := os.WriteFile(f, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Execute(ctx, st3, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, golden) {
		t.Fatal("all-corrupt cold fallback diverged")
	}
	if s := st3.Stats(); s.Misses != 1 || s.Forks != 0 {
		t.Fatalf("all-corrupt stats = %+v, want a miss and no forks", s)
	}
}

// TestRestorePayloadFailureDegradesCold covers the rung below envelope
// corruption: a checksum-valid envelope whose payload is not a usable
// snapshot. The restore fails, the simulator is rebuilt, the run is
// cold — and correct.
func TestRestorePayloadFailureDegradesCold(t *testing.T) {
	ctx := context.Background()
	rs := testSpec(8_000)
	golden, err := Execute(ctx, nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetEvery(0) // read-only: keep the poisoned entry the only one
	if err := (&Store{dir: st.dir}).Put(PrefixKey(rs), 3, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(ctx, st, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, golden) {
		t.Fatal("cold fallback after restore failure diverged")
	}
	if s := st.Stats(); s.Hits != 1 || s.Forks != 0 || s.Corrupt != 1 {
		t.Fatalf("stats = %+v, want hit=1 fork=0 corrupt=1", s)
	}
}

// TestStaleSnapshotVersionStoreForksAgain: a store written by an engine
// with the previous snapshot layout holds a checkpoint at every window of
// the run's prefix, none of which this engine can restore. The prefix key
// carries sim.SnapshotVersion, so those files are never candidates: the
// first run executes cold and writes its own checkpoints beside them, and
// the second run forks from one. Both results equal the uncheckpointed
// run's.
func TestStaleSnapshotVersionStoreForksAgain(t *testing.T) {
	ctx := context.Background()
	rs := testSpec(8_000)
	golden, err := Execute(ctx, nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetEvery(1)
	stale := prefixKeyAt(rs, sim.SnapshotVersion-1)
	for w := uint64(1); w <= rs.TotalCycles/rs.WindowCycles; w++ {
		if err := st.Put(stale, w, []byte("not a snapshot")); err != nil {
			t.Fatal(err)
		}
	}
	for run, wantForks := range []uint64{0, 1} {
		before := st.Stats()
		res, err := Execute(ctx, st, rs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, golden) {
			t.Fatalf("run %d diverged from the uncheckpointed run", run+1)
		}
		after := st.Stats()
		if forks := after.Forks - before.Forks; forks != wantForks {
			t.Fatalf("run %d: %d forks, want %d (stats %+v)", run+1, forks, wantForks, after)
		}
		if after.Corrupt != 0 {
			t.Fatalf("run %d: stale checkpoints were read (stats %+v)", run+1, after)
		}
	}
}

// TestOpenReclaimsForeignDerivations: checkpoint files written under
// another key derivation are never read again, so Open removes them and
// counts each as an eviction. That covers the previous EBCK schema
// (whose header carried one version byte) and a current-schema file from
// an engine with another snapshot layout. Current files stay, and so
// does a torn one, which is the read ladder's to skip.
func TestOpenReclaimsForeignDerivations(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "0123456789abcdef"
	for w := uint64(1); w <= 2; w++ {
		if err := st.Put(key, w, []byte("current")); err != nil {
			t.Fatal(err)
		}
	}
	seal := func(b []byte) []byte {
		h := fnv.New64a()
		h.Write(b)
		return binary.BigEndian.AppendUint64(b, h.Sum64())
	}
	// The schema-2 envelope: magic | version u8 | key len u8 | key |
	// window | payload len | payload | checksum.
	v2 := append([]byte(envelopeMagic), 2, byte(len(key)))
	v2 = append(v2, key...)
	v2 = binary.BigEndian.AppendUint64(v2, 1)
	v2 = binary.BigEndian.AppendUint64(v2, 3)
	v2 = seal(append(v2, "old"...))
	staleSnap := encodeEnvelope(key, 1, []byte("stale"))
	staleSnap = staleSnap[:len(staleSnap)-8]
	staleSnap[headerLen-1]-- // sim.SnapshotVersion - 1
	staleSnap = seal(staleSnap)
	for name, b := range map[string][]byte{
		"aaaaaaaaaaaaaaaa-w000001.ckpt": v2,
		"bbbbbbbbbbbbbbbb-w000001.ckpt": staleSnap,
		"cccccccccccccccc-w000001.ckpt": []byte("torn"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ev := st2.Stats().Evictions; ev != 2 {
		t.Fatalf("Open evicted %d files, want 2 (stats %+v)", ev, st2.Stats())
	}
	var left []string
	for _, f := range ckptFiles(t, dir) {
		left = append(left, filepath.Base(f))
	}
	want := []string{st.Path(key, 1), st.Path(key, 2), filepath.Join(dir, "cccccccccccccccc-w000001.ckpt")}
	for i := range want {
		want[i] = filepath.Base(want[i])
	}
	sort.Strings(want)
	if !reflect.DeepEqual(left, want) {
		t.Fatalf("files after re-Open %v, want %v", left, want)
	}
	if p, _, ok := st2.Best(key, 2); !ok || string(p) != "current" {
		t.Fatalf("current checkpoint lost: ok %v payload %q", ok, p)
	}
}

// TestEvictionNeverExceedsCap is the byte-budget invariant: after every
// Put the directory fits the cap, and evicted (oldest) windows
// re-materialize as misses.
func TestEvictionNeverExceedsCap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	one := int64(len(encodeEnvelope("k", 1, payload)))
	cap := 3*one + one/2 // room for three files, not four
	st.SetMaxBytes(cap)

	key := "deadbeefdeadbeef"
	for w := uint64(1); w <= 8; w++ {
		if err := st.Put(key, w, payload); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, f := range ckptFiles(t, dir) {
			info, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		if total > cap {
			t.Fatalf("after window %d the store holds %d bytes, cap %d", w, total, cap)
		}
	}
	s := st.Stats()
	if s.Evictions == 0 {
		t.Fatal("cap was honoured without a single counted eviction")
	}
	if s.Writes != 8 {
		t.Fatalf("writes = %d, want 8", s.Writes)
	}

	// The oldest windows are gone: asking for a fork point at their
	// depth is a miss, while the surviving deepest window still serves.
	if _, _, ok := st.Best(key, 2); ok {
		t.Fatal("evicted windows still served a fork point")
	}
	if _, w, ok := st.Best(key, 8); !ok || w != 8 {
		t.Fatalf("deepest surviving checkpoint not served: ok=%v w=%d", ok, w)
	}
}

// TestConcurrentForksFromOnePrefix exercises the read singleflight and
// the put-if-absent write path under -race: many goroutines forking the
// same prefix concurrently all land on the golden result.
func TestConcurrentForksFromOnePrefix(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetEvery(1)
	if _, err := Execute(ctx, st, testSpec(8_000)); err != nil {
		t.Fatal(err) // prewarm: checkpoints through window 4
	}

	long := testSpec(12_000)
	golden, err := Execute(ctx, nil, long)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	diverged := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Execute(ctx, st, long)
			if err != nil {
				errs[i] = err
				return
			}
			diverged[i] = !reflect.DeepEqual(res, golden)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		if diverged[i] {
			t.Fatalf("fork %d diverged from golden", i)
		}
	}
	if s := st.Stats(); s.Forks != n {
		t.Fatalf("forks = %d, want %d", s.Forks, n)
	}
}

// TestFaultInjectionDegradesToCold drives the store through the chaos
// seam: total read-fault injection turns every lookup into a cold run,
// total write-fault injection loses every checkpoint after retries —
// and in both regimes the results stay bit-identical.
func TestFaultInjectionDegradesToCold(t *testing.T) {
	quietWarnf(t)
	ctx := context.Background()
	rs := testSpec(8_000)
	golden, err := Execute(ctx, nil, rs)
	if err != nil {
		t.Fatal(err)
	}

	// Read faults: a prewarmed store whose every read is failed.
	dir := t.TempDir()
	pre, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre.SetEvery(1)
	if _, err := Execute(ctx, pre, rs); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetHooks(faultinject.New(faultinject.Config{Seed: 7, CacheReadErrProb: 1}))
	res, err := Execute(ctx, st, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, golden) {
		t.Fatal("read-faulted run diverged from golden")
	}
	if s := st.Stats(); s.Forks != 0 || s.Misses != 1 || s.Corrupt == 0 {
		t.Fatalf("read-fault stats = %+v, want forced miss with counted corrupts", s)
	}

	// Write faults: nothing persists, the run itself is untouched.
	wdir := t.TempDir()
	wst, err := Open(wdir)
	if err != nil {
		t.Fatal(err)
	}
	wst.SetEvery(1)
	wst.SetHooks(faultinject.New(faultinject.Config{Seed: 7, CacheWriteErrProb: 1}))
	res, err = Execute(ctx, wst, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, golden) {
		t.Fatal("write-faulted run diverged from golden")
	}
	if s := wst.Stats(); s.WriteFails == 0 || s.Writes != 0 {
		t.Fatalf("write-fault stats = %+v, want counted write failures and no writes", s)
	}
	if files := ckptFiles(t, wdir); len(files) != 0 {
		t.Fatalf("write-faulted store left %d files on disk", len(files))
	}
}

func TestNilStoreAndRunnerSeam(t *testing.T) {
	var st *Store
	st.SetEvery(1)
	st.SetMaxBytes(10)
	st.SetHooks(nil)
	st.SetMonitor(nil)
	st.Instrument(obs.NewRegistry())
	if err := st.Put("k", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Best("k", 9); ok {
		t.Fatal("nil store served a checkpoint")
	}
	if st.Stats() != (Stats{}) {
		t.Fatal("nil store has stats")
	}
	if Runner(nil, testSpec(8_000)) != nil {
		t.Fatal("Runner(nil) must return nil so RunCached executes the spec directly")
	}
}

func TestInstrumentPublishesCounters(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("cafe", 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	st.Best("cafe", 5)
	reg := obs.NewRegistry()
	st.Instrument(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ebm_ckpt_hits_total", "ebm_ckpt_misses_total", "ebm_ckpt_forks_total",
		"ebm_ckpt_write_evictions_total", "ebm_ckpt_bytes_written_total",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("registry text missing %s", name)
		}
	}
}
