package dsweep

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/obs"
	"ebm/internal/sim"
	"ebm/internal/simcache"
)

// testCells fabricates cells whose keys are opaque strings: coordinator
// bookkeeping never recomputes fingerprints, so the spec can stay zero.
func testCells(keys ...string) []Cell {
	cells := make([]Cell, len(keys))
	for i, k := range keys {
		cells[i] = Cell{Key: k}
	}
	return cells
}

func fakeResult(n uint64) sim.Result {
	return sim.Result{Cycles: n, TotalBW: float64(n) / 7, Windows: n % 5}
}

func goodHello(id string) Hello {
	return Hello{
		Worker:      id,
		Version:     "devel",
		Wire:        WireVersion,
		CacheSchema: simcache.SchemaVersion,
		CkptSchema:  ckpt.SchemaVersion,
	}
}

func newTestCoord(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = time.Minute // never expires within a unit test
	}
	if opts.Version == "" {
		opts.Version = "devel"
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRegisterHandshakeRejectsMismatches(t *testing.T) {
	c := newTestCoord(t, Options{Cells: testCells("a"), Version: "release-1"})
	cases := []struct {
		name string
		h    Hello
		want string // substring of the rejection reason
	}{
		{"empty id", Hello{Version: "release-1", Wire: WireVersion, CacheSchema: simcache.SchemaVersion, CkptSchema: ckpt.SchemaVersion}, "empty worker id"},
		{"wire", Hello{Worker: "w", Version: "release-1", Wire: WireVersion + 1, CacheSchema: simcache.SchemaVersion, CkptSchema: ckpt.SchemaVersion}, "wire version"},
		{"cache schema", Hello{Worker: "w", Version: "release-1", Wire: WireVersion, CacheSchema: simcache.SchemaVersion + 9, CkptSchema: ckpt.SchemaVersion}, "simcache schema"},
		{"ckpt schema", Hello{Worker: "w", Version: "release-1", Wire: WireVersion, CacheSchema: simcache.SchemaVersion, CkptSchema: ckpt.SchemaVersion + 9}, "ckpt schema"},
		{"build version", Hello{Worker: "w", Version: "release-2", Wire: WireVersion, CacheSchema: simcache.SchemaVersion, CkptSchema: ckpt.SchemaVersion}, "build version"},
	}
	for _, tc := range cases {
		reply := c.Register(tc.h)
		if reply.OK {
			t.Fatalf("%s: mismatched hello was accepted", tc.name)
		}
		if !strings.Contains(reply.Error, tc.want) {
			t.Fatalf("%s: rejection %q does not name the mismatch %q", tc.name, reply.Error, tc.want)
		}
	}
	if st := c.Status(); st.Workers != 0 {
		t.Fatalf("%d workers registered after rejections", st.Workers)
	}

	h := goodHello("w")
	h.Version = "release-1"
	reply := c.Register(h)
	if !reply.OK {
		t.Fatalf("compatible hello rejected: %s", reply.Error)
	}
	if reply.HeartbeatEveryNs <= 0 || reply.LeaseTTLNs != int64(time.Minute) {
		t.Fatalf("handshake cadence hb=%d ttl=%d, want ttl=%d (read back off the watchdog)",
			reply.HeartbeatEveryNs, reply.LeaseTTLNs, int64(time.Minute))
	}
}

// TestFencingRejectsZombiesAndDuplicates walks the core lease state
// machine: grant, manual expiry, reassignment under a higher fence, and
// the three fenced-reject shapes (stale fence, already-done, unknown
// cell) — each counted in Counts and in the obs registry counters.
func TestFencingRejectsZombiesAndDuplicates(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCoord(t, Options{Cells: testCells("a", "b"), Registry: reg})
	for _, id := range []string{"w1", "w2"} {
		if r := c.Register(goodHello(id)); !r.OK {
			t.Fatalf("register %s: %s", id, r.Error)
		}
	}

	reply, known := c.Lease(LeaseRequest{Worker: "w1"})
	if !known || reply.Cell == nil || reply.Cell.Key != "a" || reply.Fence != 1 {
		t.Fatalf("first lease = %+v (known %v), want cell a under fence 1", reply, known)
	}

	// w1 goes silent; the operator (here: the test) expires it.
	c.expireWorker("w1", "test expiry")
	if _, known := c.Lease(LeaseRequest{Worker: "w1"}); known {
		t.Fatal("expired worker still known to the coordinator")
	}

	// The cell comes back under a strictly higher fence: a reassignment.
	reply2, known := c.Lease(LeaseRequest{Worker: "w2"})
	if !known || reply2.Cell == nil || reply2.Cell.Key != "a" {
		t.Fatalf("reassignment lease = %+v, want cell a", reply2)
	}
	if reply2.Fence <= reply.Fence {
		t.Fatalf("reassigned fence %d did not advance past %d", reply2.Fence, reply.Fence)
	}

	// The zombie finishes anyway. Its result is rejected by the fence.
	if r := c.Complete(CompleteRequest{Worker: "w1", Key: "a", Fence: reply.Fence, Result: fakeResult(1)}); r.Accepted {
		t.Fatal("zombie completion under a dead fence was accepted")
	}
	// The live lease lands.
	if r := c.Complete(CompleteRequest{Worker: "w2", Key: "a", Fence: reply2.Fence, Result: fakeResult(2)}); !r.Accepted {
		t.Fatalf("live completion rejected: %s", r.Reason)
	}
	// A duplicate of a done cell and a completion for a cell outside the
	// sweep are both fenced rejects.
	if r := c.Complete(CompleteRequest{Worker: "w2", Key: "a", Fence: reply2.Fence, Result: fakeResult(2)}); r.Accepted {
		t.Fatal("duplicate completion of a done cell was accepted")
	}
	if r := c.Complete(CompleteRequest{Worker: "w2", Key: "nope", Fence: 99, Result: fakeResult(3)}); r.Accepted {
		t.Fatal("completion for an unknown cell was accepted")
	}

	n := c.Counts()
	if n.Expired != 1 || n.Reassigned != 1 || n.FencedRejects != 3 || n.Completed != 1 {
		t.Fatalf("counts = %+v, want 1 expired, 1 reassigned, 3 fenced rejects, 1 completed", n)
	}
	// The registry mirrors the lifecycle under the documented names.
	rr := httptest.NewRecorder()
	obs.Handler(reg).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"ebm_dsweep_leases_granted_total 2",
		"ebm_dsweep_leases_expired_total 1",
		"ebm_dsweep_leases_reassigned_total 1",
		"ebm_dsweep_fenced_rejects_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Result durability: the accepted result (and only it) is visible.
	res := c.Results()
	if len(res) != 1 || !reflect.DeepEqual(res["a"], fakeResult(2)) {
		t.Fatalf("results = %+v, want only cell a with the live worker's result", res)
	}
}

// TestHeartbeatProgressGating pins the wedged-worker rule: heartbeats
// sustain a lease only while reported progress advances (or the worker
// is idle); beats without progress expire exactly like silence.
func TestHeartbeatProgressGating(t *testing.T) {
	ttl := 200 * time.Millisecond
	c := newTestCoord(t, Options{Cells: testCells("a", "b"), LeaseTTL: ttl})
	for _, id := range []string{"busy", "idle"} {
		if r := c.Register(goodHello(id)); !r.OK {
			t.Fatalf("register %s: %s", id, r.Error)
		}
	}
	if reply, _ := c.Lease(LeaseRequest{Worker: "busy"}); reply.Cell == nil {
		t.Fatal("no lease granted")
	}

	// Advancing progress (and idle beats) carry both workers well past
	// the TTL.
	progress := uint64(0)
	until := time.Now().Add(3 * ttl)
	for time.Now().Before(until) {
		progress++
		if !c.Heartbeat(HeartbeatRequest{Worker: "busy", Progress: progress}) {
			t.Fatal("advancing worker expired despite progress")
		}
		if !c.Heartbeat(HeartbeatRequest{Worker: "idle", Progress: 0}) {
			t.Fatal("idle worker expired despite heartbeats")
		}
		time.Sleep(ttl / 8)
	}

	// Now the busy worker wedges: beats keep arriving, progress does not.
	// (The idle worker keeps beating too — it must survive this.)
	waitFor(t, "wedged worker to expire", 10*ttl, func() bool {
		c.Heartbeat(HeartbeatRequest{Worker: "idle", Progress: 0})
		return !c.Heartbeat(HeartbeatRequest{Worker: "busy", Progress: progress})
	})
	n := c.Counts()
	if n.Expired < 1 {
		t.Fatalf("counts = %+v, want the wedged worker's lease expired", n)
	}
	if st := c.Status(); st.Pending != 2 {
		t.Fatalf("status = %+v, want both cells pending again", st)
	}
	// The idle worker is still fine.
	if !c.Heartbeat(HeartbeatRequest{Worker: "idle", Progress: 0}) {
		t.Fatal("idle worker was expired alongside the wedged one")
	}
}

// TestRestartResumesWithoutRerunningAndFenceNeverRegresses is the
// coordinator-crash story: a successor built over the same state path
// restores completed cells, restarts the fence above every token the
// old incarnation issued, and fences off completions from before the
// restart.
func TestRestartResumesWithoutRerunningAndFenceNeverRegresses(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	cells := testCells("a", "b", "c")

	c1 := newTestCoord(t, Options{Cells: cells, StatePath: state})
	if r := c1.Register(goodHello("w1")); !r.OK {
		t.Fatal(r.Error)
	}
	l1, _ := c1.Lease(LeaseRequest{Worker: "w1"})
	if r := c1.Complete(CompleteRequest{Worker: "w1", Key: l1.Cell.Key, Fence: l1.Fence, Result: fakeResult(11)}); !r.Accepted {
		t.Fatal(r.Reason)
	}
	l2, _ := c1.Lease(LeaseRequest{Worker: "w1"}) // granted, never completed
	c1.Close()

	// The checkpoint on disk carries the schema, the fence high-water
	// mark, and exactly the completed cell.
	b, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Schema int                   `json:"schema"`
		Fence  uint64                `json:"fence"`
		Done   map[string]sim.Result `json:"done"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("torn state checkpoint: %v", err)
	}
	if st.Schema != StateSchemaVersion || st.Fence < l2.Fence || len(st.Done) != 1 {
		t.Fatalf("state = schema %d fence %d done %d, want schema %d fence >= %d done 1",
			st.Schema, st.Fence, len(st.Done), StateSchemaVersion, l2.Fence)
	}

	c2 := newTestCoord(t, Options{Cells: cells, StatePath: state})
	if n := c2.Counts(); n.Resumed != 1 {
		t.Fatalf("counts = %+v, want 1 cell resumed from the checkpoint", n)
	}
	if got := c2.Results(); !reflect.DeepEqual(got[l1.Cell.Key], fakeResult(11)) {
		t.Fatalf("resumed result %+v is not the one completed before the restart", got)
	}
	// The restarted coordinator forgot the roster on purpose.
	if _, known := c2.Lease(LeaseRequest{Worker: "w1"}); known {
		t.Fatal("pre-restart worker still known after restart")
	}
	// A completion under a pre-restart fence is a zombie.
	if r := c2.Complete(CompleteRequest{Worker: "w1", Key: l2.Cell.Key, Fence: l2.Fence, Result: fakeResult(22)}); r.Accepted {
		t.Fatal("pre-restart completion was accepted by the successor")
	}
	// New grants start strictly above every token ever issued.
	if r := c2.Register(goodHello("w2")); !r.OK {
		t.Fatal(r.Error)
	}
	l3, _ := c2.Lease(LeaseRequest{Worker: "w2"})
	if l3.Cell == nil || l3.Fence <= l2.Fence {
		t.Fatalf("post-restart fence %d did not advance past pre-restart %d", l3.Fence, l2.Fence)
	}
}

func TestTornStateCheckpointDegradesToFreshStart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(state, []byte(`{"schema":1,"fence":7,"done":{`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newTestCoord(t, Options{Cells: testCells("a"), StatePath: state})
	if n := c.Counts(); n.Resumed != 0 {
		t.Fatalf("resumed %d cells from a torn checkpoint", n.Resumed)
	}
	if st := c.Status(); st.Done != 0 || st.Pending != 1 {
		t.Fatalf("status = %+v, want a fresh sweep", st)
	}
}

func TestPrewarmCompletesCachedCellsUpFront(t *testing.T) {
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm := fakeResult(99)
	if err := cache.Put("a", warm); err != nil {
		t.Fatal(err)
	}
	c := newTestCoord(t, Options{Cells: testCells("a", "b"), Cache: cache})
	st := c.Status()
	if st.Done != 1 || st.Pending != 1 || c.Counts().Prewarmed != 1 {
		t.Fatalf("status = %+v counts = %+v, want cell a prewarmed", st, c.Counts())
	}
	if got := c.Results()["a"]; !reflect.DeepEqual(got, warm) {
		t.Fatalf("prewarmed result %+v differs from the cached one", got)
	}
}

func TestReleaseAndDeregisterReturnCellsToQueue(t *testing.T) {
	// Duplicate keys collapse: the fingerprint is the identity.
	c := newTestCoord(t, Options{Cells: testCells("a", "b", "a")})
	if st := c.Status(); st.Total != 2 {
		t.Fatalf("total = %d, want duplicate-keyed cells collapsed to 2", st.Total)
	}
	if r := c.Register(goodHello("w")); !r.OK {
		t.Fatal(r.Error)
	}

	l1, _ := c.Lease(LeaseRequest{Worker: "w"})
	// A stale release (wrong fence) must not yank the lease.
	if r := c.Release(ReleaseRequest{Worker: "w", Key: l1.Cell.Key, Fence: l1.Fence + 1}); r.Accepted {
		t.Fatal("stale release accepted")
	}
	if st := c.Status(); st.Leased != 1 {
		t.Fatalf("status = %+v after stale release, want the lease intact", st)
	}
	// The real one hands the cell back.
	if r := c.Release(ReleaseRequest{Worker: "w", Key: l1.Cell.Key, Fence: l1.Fence}); !r.Accepted {
		t.Fatalf("release rejected: %s", r.Reason)
	}
	if st := c.Status(); st.Pending != 2 || st.Leased != 0 {
		t.Fatalf("status = %+v after release, want both cells pending", st)
	}

	// Deregistering with a lease outstanding releases it too.
	l2, _ := c.Lease(LeaseRequest{Worker: "w"})
	if l2.Cell == nil {
		t.Fatal("no lease after release")
	}
	c.Deregister(DeregisterRequest{Worker: "w"})
	st := c.Status()
	if st.Workers != 0 || st.Pending != 2 || st.Leased != 0 {
		t.Fatalf("status = %+v after deregister, want empty roster and both cells pending", st)
	}
	if n := c.Counts(); n.Released != 2 || n.Expired != 0 {
		t.Fatalf("counts = %+v, want 2 orderly releases and no expiries", n)
	}
}

// TestSweepDoneSignals pins the completion protocol: Done closes, Wait
// returns, and further leases answer Done so workers drain themselves.
func TestSweepDoneSignals(t *testing.T) {
	c := newTestCoord(t, Options{Cells: testCells("a")})
	if r := c.Register(goodHello("w")); !r.OK {
		t.Fatal(r.Error)
	}
	l, _ := c.Lease(LeaseRequest{Worker: "w"})
	select {
	case <-c.Done():
		t.Fatal("Done closed before the sweep completed")
	default:
	}
	if r := c.Complete(CompleteRequest{Worker: "w", Key: l.Cell.Key, Fence: l.Fence, Result: fakeResult(1)}); !r.Accepted {
		t.Fatal(r.Reason)
	}
	select {
	case <-c.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed after the last completion")
	}
	if reply, _ := c.Lease(LeaseRequest{Worker: "w"}); !reply.Done {
		t.Fatalf("post-completion lease = %+v, want Done", reply)
	}
}

// TestBareStatePathSavesBesideItself pins sweepd's default state path:
// `-state auto` under a -simcache with no directory part resolves to the
// bare name dsweep-state.json. The checkpoint's temp file must land in
// the working directory beside it, never in $TMPDIR (here a missing
// directory, so a temp file there fails the save), and a second
// coordinator must resume from what the first one wrote. It changes the
// process's working directory, so it must not run in parallel.
func TestBareStatePathSavesBesideItself(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))
	oldWarnf := simcache.Warnf
	simcache.Warnf = func(format string, args ...any) { t.Errorf("unexpected warning: "+format, args...) }
	t.Cleanup(func() { simcache.Warnf = oldWarnf })

	const state = "dsweep-state.json"
	cells := testCells("a", "b")
	c1 := newTestCoord(t, Options{Cells: cells, StatePath: state})
	if r := c1.Register(goodHello("w1")); !r.OK {
		t.Fatal(r.Error)
	}
	l, _ := c1.Lease(LeaseRequest{Worker: "w1"})
	if r := c1.Complete(CompleteRequest{Worker: "w1", Key: l.Cell.Key, Fence: l.Fence, Result: fakeResult(5)}); !r.Accepted {
		t.Fatal(r.Reason)
	}
	c1.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != state {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("working dir holds %v, want only %s", names, state)
	}

	c2 := newTestCoord(t, Options{Cells: cells, StatePath: state})
	if n := c2.Counts(); n.Resumed != 1 {
		t.Fatalf("counts = %+v, want 1 cell resumed from %s", n, state)
	}
	if got := c2.Results(); !reflect.DeepEqual(got[l.Cell.Key], fakeResult(5)) {
		t.Fatalf("resumed result %+v is not the one completed before the restart", got)
	}
}
