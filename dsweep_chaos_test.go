package ebm_test

// Distributed-sweep chaos test: the three-act storyline of DESIGN.md §15
// run end to end against the real wire protocol, with workers that die
// the way workers actually die. Act 1 kills a worker mid-cell, lets a
// heartbeat-dropping straggler turn zombie (its lease expires while it
// keeps simulating through injected window stalls and cache write
// faults), and proves every such completion is rejected by the fencing
// check and counted. Act 2 restarts the coordinator from its state
// checkpoint and fences off a completion carried over from before the
// restart. Act 3 drains the remainder with a clean worker and proves
// the distributed sweep's per-cell results are bit-identical to a
// single-process build of the same grid — strongly: a local sweep over
// the shared cache afterwards replays every cell without simulating.
// `make dsweep-chaos` runs this under the race detector.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ebm/internal/dsweep"
	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/runner"
	"ebm/internal/search"
	"ebm/internal/simcache"
)

func dsweepChaosCells(t *testing.T) []dsweep.Cell {
	t.Helper()
	g := chaosGridOpts(nil, nil, nil)
	return dsweep.GridCells(chaosApps(t), dsweep.GridOptions{
		Config: g.Config, Levels: g.Levels,
		TotalCycles: g.TotalCycles, WarmupCycles: g.WarmupCycles,
	})
}

func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue extracts a sample value from Prometheus exposition text.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("metric %s: unparsable value %q", name, f[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed:\n%s", name, body)
	return 0
}

func TestDsweepChaosRecoversBitIdentical(t *testing.T) {
	apps := chaosApps(t)
	cells := dsweepChaosCells(t)
	dir := t.TempDir()       // the shared result store every party uses
	ledgerDir := t.TempDir() // one ledger file per coordinator incarnation
	stateDir := t.TempDir()  // the coordinator's assignment checkpoint
	statePath := filepath.Join(stateDir, "dsweep-state.json")

	oldWarnf := simcache.Warnf
	simcache.Warnf = func(string, ...any) {} // injected write faults are expected noise
	t.Cleanup(func() { simcache.Warnf = oldWarnf })

	// Reference: an undisturbed single-process build in its own cache.
	refPool := runner.New(4)
	refCache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := search.BuildGrid(context.Background(), apps, chaosGridOpts(refCache, refPool, nil))
	refPool.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Results) != len(cells) {
		t.Fatalf("%d reference results for %d cells", len(ref.Results), len(cells))
	}

	openShared := func() *simcache.Cache {
		t.Helper()
		c, err := simcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	openLedger := func(name string) *obs.Ledger {
		t.Helper()
		l, err := obs.OpenLedger(filepath.Join(ledgerDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// ---- Act 1: a zombie straggler and a mid-cell crash. --------------
	//
	// The lease TTL is tiny; the zombie's heartbeats are all dropped and
	// its simulations stall 500ms per window, so every lease it takes
	// expires long before it finishes — yet it always finishes, and every
	// one of its completions must bounce off the fencing check. Its cache
	// writes are injected to fail too, so nothing it computed is trusted.
	ledger1 := openLedger("coord1.jsonl")
	reg1 := obs.NewRegistry()
	coord1, err := dsweep.New(dsweep.Options{
		Cells:     cells,
		Cache:     openShared(),
		StatePath: statePath,
		LeaseTTL:  150 * time.Millisecond,
		Version:   "devel",
		Ledger:    ledger1,
		Registry:  reg1,
		Mon:       resilience.NewMonitor(reg1, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(coord1.Handler())

	inj := faultinject.New(faultinject.Config{
		Seed:              7,
		HeartbeatDropProb: 1,
		HeartbeatDelay:    time.Millisecond,
		StallEveryWindows: 1,
		Stall:             500 * time.Millisecond,
		CacheWriteErrProb: 1,
	})
	zombieCache := openShared()
	zombieCache.SetHooks(inj)
	zombiePool := runner.New(2)
	defer zombiePool.Close()
	zombie := dsweep.NewWorker(dsweep.WorkerOptions{
		ID: "zombie", URL: srv1.URL, Cache: zombieCache, Runner: zombiePool, Hooks: inj,
	})
	zombieErr := make(chan error, 1)
	go func() { zombieErr <- zombie.Run(context.Background()) }()
	waitUntil(t, "the zombie to take a lease", 30*time.Second, func() bool {
		return coord1.Counts().Granted >= 1
	})

	casualtyPool := runner.New(2)
	defer casualtyPool.Close()
	casualty := dsweep.NewWorker(dsweep.WorkerOptions{
		ID: "casualty", URL: srv1.URL, Cache: openShared(), Runner: casualtyPool,
	})
	casualtyErr := make(chan error, 1)
	go func() { casualtyErr <- casualty.Run(context.Background()) }()
	waitUntil(t, "the casualty to take a lease", 30*time.Second, func() bool {
		return coord1.Counts().Granted >= 2
	})
	casualty.Kill() // mid-cell: no release, no deregister — the watchdog must notice

	waitUntil(t, "expiries, a reassignment, and a fenced zombie completion", 60*time.Second, func() bool {
		n := coord1.Counts()
		return n.Expired >= 2 && n.Reassigned >= 1 && n.FencedRejects >= 1
	})
	zombie.Kill()
	for _, ch := range []chan error{zombieErr, casualtyErr} {
		select {
		case <-ch: // killed workers die with whatever error was in flight
		case <-time.After(30 * time.Second):
			t.Fatal("a killed worker did not stop")
		}
	}

	counts1 := coord1.Counts()
	doneBefore := coord1.Status().Done
	if zombie.Completed() != 0 {
		t.Fatalf("the coordinator accepted %d completions from the zombie", zombie.Completed())
	}
	if zombie.Fenced() == 0 {
		t.Fatal("the zombie never saw a completion fenced off")
	}
	fc := inj.Counts()
	if fc.HeartbeatDrops == 0 || fc.Stalls == 0 || fc.WriteErrs == 0 {
		t.Fatalf("injector counts %+v: heartbeat drops, window stalls, and cache write faults should all have fired", fc)
	}
	// The acceptance counters are mirrored into the obs registry under
	// their documented names.
	rr := httptest.NewRecorder()
	obs.Handler(reg1).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	for _, name := range []string{
		"ebm_dsweep_leases_expired_total",
		"ebm_dsweep_leases_reassigned_total",
		"ebm_dsweep_fenced_rejects_total",
	} {
		if v := metricValue(t, rr.Body.String(), name); v < 1 {
			t.Fatalf("metric %s = %v, want >= 1", name, v)
		}
	}
	srv1.Close()
	coord1.Close()
	ledger1.Close()

	// ---- Act 2: the coordinator dies and a successor takes over. ------
	//
	// The checkpoint must carry the fence reservation high-water mark
	// (persisted before any token in the block ever left, so at least
	// the grant count) and exactly the accepted completions.
	b, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	var persisted struct {
		Fence uint64                     `json:"fence"`
		Done  map[string]json.RawMessage `json:"done"`
	}
	if err := json.Unmarshal(b, &persisted); err != nil {
		t.Fatalf("torn state checkpoint: %v", err)
	}
	if persisted.Fence < counts1.Granted {
		t.Fatalf("checkpointed fence %d regressed below the grant count %d", persisted.Fence, counts1.Granted)
	}
	if len(persisted.Done) != doneBefore {
		t.Fatalf("checkpoint holds %d done cells, coordinator had %d", len(persisted.Done), doneBefore)
	}

	ledger2 := openLedger("coord2.jsonl")
	defer ledger2.Close()
	reg2 := obs.NewRegistry()
	coord2, err := dsweep.New(dsweep.Options{
		Cells:     cells,
		Cache:     openShared(),
		StatePath: statePath,
		LeaseTTL:  2 * time.Second, // the rescue worker is honest; don't race it
		Version:   "devel",
		Ledger:    ledger2,
		Registry:  reg2,
		Mon:       resilience.NewMonitor(reg2, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	srv2 := httptest.NewServer(coord2.Handler())
	defer srv2.Close()

	if n := coord2.Counts(); int(n.Resumed) != doneBefore {
		t.Fatalf("successor resumed %d cells, predecessor had completed %d", n.Resumed, doneBefore)
	}
	// A zombie from before the restart reports in with its old fence.
	// The successor has never heard of it — and still fences it off.
	ghost, _ := json.Marshal(dsweep.CompleteRequest{Worker: "zombie", Key: cells[0].Key, Fence: 1})
	resp, err := http.Post(srv2.URL+dsweep.PathComplete, "application/json", bytes.NewReader(ghost))
	if err != nil {
		t.Fatal(err)
	}
	var ghostReply dsweep.CompleteReply
	json.NewDecoder(resp.Body).Decode(&ghostReply)
	resp.Body.Close()
	if ghostReply.Accepted {
		t.Fatal("the successor accepted a completion under a pre-restart fence")
	}
	if n := coord2.Counts(); n.FencedRejects < 1 {
		t.Fatalf("successor counts %+v: the ghost completion was not counted as a fenced reject", n)
	}

	// ---- Act 3: a clean worker drains the remainder. ------------------
	rescuePool := runner.New(4)
	defer rescuePool.Close()
	rescue := dsweep.NewWorker(dsweep.WorkerOptions{
		ID: "rescue", URL: srv2.URL, Cache: openShared(), Runner: rescuePool,
	})
	rescueErr := make(chan error, 1)
	go func() { rescueErr <- rescue.Run(context.Background()) }()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := coord2.Wait(ctx); err != nil {
		t.Fatalf("sweep never finished: %v (status %+v)", err, coord2.Status())
	}
	if err := <-rescueErr; err != nil {
		t.Fatalf("rescue worker: %v", err)
	}

	// Bit-identity, cell for cell, against the undisturbed local build.
	results := coord2.Results()
	for i, cell := range cells {
		if !reflect.DeepEqual(results[cell.Key], ref.Results[i]) {
			t.Fatalf("cell %d (%s) differs from the single-process build", i, cell.Key)
		}
	}
	assertNoTornEntries(t, dir)

	// The strong form: a local sweep over the shared store replays every
	// cell from cache — zero simulation — and still matches the reference.
	replayCache := openShared()
	replayPool := runner.New(4)
	defer replayPool.Close()
	replayed, err := search.BuildGrid(context.Background(), apps, chaosGridOpts(replayCache, replayPool, nil))
	if err != nil {
		t.Fatal(err)
	}
	if s := replayCache.Stats(); int(s.Hits) != len(cells) || s.Misses != 0 {
		t.Fatalf("local replay stats %+v, want %d hits and no misses", s, len(cells))
	}
	if !reflect.DeepEqual(replayed.Results, ref.Results) {
		t.Fatal("local replay of the distributed sweep is not bit-identical to the reference")
	}

	// Provenance: the two coordinator ledgers merge into one attributed
	// story — every cell completed exactly once, by a named worker, and
	// the zombie (whose completions were all fenced) appears nowhere.
	recs, skipped, err := obs.ReadLedgers(ledgerDir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d torn ledger lines", skipped)
	}
	deduped, dups := obs.DedupByFingerprint(recs)
	// Cells the successor prewarmed straight from the cache (a killed
	// worker's put can land without its completion report) were never
	// "completed" by anyone, so they carry no record — work survives the
	// crash, attribution honestly doesn't.
	wantRecs := len(cells) - int(coord2.Counts().Prewarmed)
	if len(deduped) != wantRecs || dups != 0 {
		t.Fatalf("merged ledgers hold %d records (%d dups), want one per worker-completed cell (%d)", len(deduped), dups, wantRecs)
	}
	keys := make(map[string]bool, len(cells))
	for _, c := range cells {
		keys[c.Key] = true
	}
	for _, r := range deduped {
		if !keys[r.Fingerprint] {
			t.Fatalf("ledger record for foreign fingerprint %s", r.Fingerprint)
		}
		if r.Worker == "" || r.Worker == "zombie" {
			t.Fatalf("record for %s attributed to %q", r.Fingerprint, r.Worker)
		}
	}
	sum := obs.SummarizeLedger(deduped, 0)
	if sum.Workers["rescue"] == nil || sum.Workers["rescue"].Records == 0 {
		t.Fatalf("summary workers %v, want the rescue worker attributed", sum.Workers)
	}
}
