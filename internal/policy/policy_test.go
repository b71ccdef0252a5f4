package policy

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ebm/internal/config"
	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/tlp"
	"ebm/internal/workload"
)

// fakeMgr scripts Initial/OnSample per test.
type fakeMgr struct {
	name     string
	initial  func(numApps int) tlp.Decision
	onSample func(s tlp.Sample) tlp.Decision
}

func (m *fakeMgr) Name() string { return m.name }

func (m *fakeMgr) Initial(numApps int) tlp.Decision {
	if m.initial == nil {
		return tlp.NewDecision(numApps, 4)
	}
	return m.initial(numApps)
}

func (m *fakeMgr) OnSample(s tlp.Sample) tlp.Decision { return m.onSample(s) }

func sample(numApps int, cycle uint64) tlp.Sample {
	return tlp.Sample{Cycle: cycle, Apps: make([]tlp.AppSample, numApps)}
}

func TestPanicFallsBackToLastGood(t *testing.T) {
	calls := 0
	m := &fakeMgr{name: "flaky", onSample: func(s tlp.Sample) tlp.Decision {
		calls++
		if calls >= 2 {
			panic("boom")
		}
		return tlp.NewDecision(len(s.Apps), 8)
	}}
	g := Wrap(m, Options{})

	if d := g.Initial(2); len(d.TLP) != 2 || d.TLP[0] != 4 {
		t.Fatalf("initial: %v", d)
	}
	good := g.OnSample(sample(2, 100))
	if good.TLP[0] != 8 {
		t.Fatalf("good decision: %v", good)
	}
	got := g.OnSample(sample(2, 200))
	if !got.Equal(good) {
		t.Fatalf("fallback %v, want last-good %v", got, good)
	}
	if g.Faults() != 1 {
		t.Fatalf("faults = %d, want 1", g.Faults())
	}
	labels := g.FaultLabels()
	if len(labels) != 1 || !strings.Contains(labels[0], "panic: boom") {
		t.Fatalf("labels: %v", labels)
	}
}

func TestFallbackLadderSafeThenMaxTLP(t *testing.T) {
	panicky := func() *fakeMgr {
		return &fakeMgr{
			name:     "dead",
			initial:  func(int) tlp.Decision { panic("init boom") },
			onSample: func(tlp.Sample) tlp.Decision { panic("boom") },
		}
	}

	safe := tlp.NewDecision(3, 2)
	g := Wrap(panicky(), Options{Safe: &safe})
	if d := g.Initial(3); !d.Equal(safe) {
		t.Fatalf("with Safe: %v, want %v", d, safe)
	}

	g2 := Wrap(panicky(), Options{})
	d := g2.Initial(3)
	want := tlp.NewDecision(3, config.MaxTLP)
	if !d.Equal(want) {
		t.Fatalf("without Safe: %v, want all-maxTLP %v", d, want)
	}

	// A Safe with the wrong shape is skipped on the ladder.
	badSafe := tlp.NewDecision(2, 2)
	g3 := Wrap(panicky(), Options{Safe: &badSafe})
	if d := g3.Initial(3); !d.Equal(want) {
		t.Fatalf("wrong-shaped Safe: %v, want all-maxTLP %v", d, want)
	}
}

func TestInvalidDecisionsFault(t *testing.T) {
	cases := []struct {
		bad  tlp.Decision
		want string
	}{
		{tlp.Decision{TLP: []int{4}}, "TLP values for 2 applications"},
		{tlp.Decision{TLP: []int{4, 99}}, "out of range"},
		{tlp.Decision{TLP: []int{4, 0}}, "out of range"},
		{tlp.Decision{TLP: []int{4, 4}, BypassL1: []bool{true}}, "bypass mask"},
	}
	for _, c := range cases {
		bad := c.bad
		m := &fakeMgr{name: "bad", onSample: func(tlp.Sample) tlp.Decision { return bad }}
		g := Wrap(m, Options{})
		g.Initial(2)
		d := g.OnSample(sample(2, 10))
		if len(d.TLP) != 2 {
			t.Fatalf("%v: fallback shape %v", c.bad, d)
		}
		if g.Faults() != 1 {
			t.Fatalf("%v: faults = %d", c.bad, g.Faults())
		}
		if ls := g.FaultLabels(); !strings.Contains(ls[0], c.want) {
			t.Fatalf("%v: label %q, want %q", c.bad, ls[0], c.want)
		}
	}
}

func TestObserverCountersAndJournal(t *testing.T) {
	reg := obs.NewRegistry()
	j := obs.NewJournal()
	m := &fakeMgr{name: "bad", onSample: func(tlp.Sample) tlp.Decision { panic("boom") }}
	g := Wrap(m, Options{Obs: &obs.Observer{Metrics: reg, Journal: j}})
	g.Initial(2)
	g.OnSample(sample(2, 50))

	if v := reg.Counter("ebm_policy_faults_total", "").Value(); v != 1 {
		t.Fatalf("fault counter = %d", v)
	}
	var faults int
	for _, e := range j.Events() {
		if e.Kind == obs.EvPolicyFault {
			faults++
			if e.App != -1 || e.Cycle != 50 {
				t.Fatalf("fault event: %+v", e)
			}
		}
	}
	if faults != 1 {
		t.Fatalf("journal: %d faults", faults)
	}
}

func TestStaterDelegation(t *testing.T) {
	inner, err := tlp.NewStatic("s", []int{4, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := Wrap(inner, Options{})
	g.Initial(2)
	b, err := g.StateBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetStateBytes(b); err != nil {
		t.Fatal(err)
	}

	g2 := Wrap(&fakeMgr{name: "stateless", onSample: func(s tlp.Sample) tlp.Decision {
		return tlp.NewDecision(len(s.Apps), 4)
	}}, Options{})
	if _, err := g2.StateBytes(); err == nil || !strings.Contains(err.Error(), "does not support checkpointing") {
		t.Fatalf("non-Stater StateBytes: %v", err)
	}
}

// Chaos composition: an injector-wrapped policy inside the Guard panics
// per the injected schedule and the sandbox absorbs every one.
func TestInjectedPolicyPanicsAreAbsorbed(t *testing.T) {
	inj := faultinject.New(faultinject.Config{Seed: 1, PolicyPanicProb: 1, MaxPolicyPanics: 2})
	inner, err := tlp.NewStatic("s", []int{4, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := Wrap(faultinject.WrapManager(inner, inj), Options{})
	g.Initial(2)
	for w := uint64(1); w <= 4; w++ {
		d := g.OnSample(sample(2, w*1000))
		if len(d.TLP) != 2 {
			t.Fatalf("window %d: %v", w, d)
		}
	}
	if g.Faults() != 2 {
		t.Fatalf("faults = %d, want the 2 capped injected panics", g.Faults())
	}
	if c := inj.Counts(); c.PolicyPanics != 2 {
		t.Fatalf("injector counted %d policy panics", c.PolicyPanics)
	}
}

// A run Execute degrades is returned but never cached, and its faults
// land on the provenance ledger.
func TestExecuteDegradedRunIsVolatile(t *testing.T) {
	dir := t.TempDir()
	c, err := simcache.Open(filepath.Join(dir, "simcache"))
	if err != nil {
		t.Fatal(err)
	}
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	l, err := obs.OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLedger(l)
	wl := workload.MustMake("BLK", "BFS")
	rs := spec.RunSpec{
		Config: config.Default(), Apps: wl.Apps, Scheme: spec.MaxTLP(),
		TotalCycles: 10_000, WindowCycles: 2_500,
	}
	inner, err := rs.Manager()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 1, PolicyPanicProb: 1, MaxPolicyPanics: 1})
	g := Wrap(faultinject.WrapManager(inner, inj), Options{})

	res, err := simcache.RunCached(context.Background(), c, nil, 0, rs, func(ctx context.Context) (sim.Result, error) {
		return g.Execute(ctx, rs, nil)
	})
	if err != nil || res.Cycles != rs.TotalCycles {
		t.Fatalf("degraded run: %d cycles, %v", res.Cycles, err)
	}
	if g.Faults() != 1 {
		t.Fatalf("faults = %d, want the 1 injected panic", g.Faults())
	}
	if w := c.Stats().Writes; w != 0 {
		t.Fatalf("degraded run was cached (%d writes)", w)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := obs.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Faults) != 1 || !strings.HasPrefix(recs[0].Faults[0], "policy: panic") {
		t.Fatalf("ledger records: %+v", recs)
	}
}

// The Guard's accessors are safe against concurrent decision traffic
// (exercised under -race by the verify matrix).
func TestGuardConcurrentAccess(t *testing.T) {
	m := &fakeMgr{name: "m", onSample: func(s tlp.Sample) tlp.Decision {
		return tlp.NewDecision(len(s.Apps), 8)
	}}
	g := Wrap(m, Options{})
	g.Initial(2)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			g.OnSample(sample(2, uint64(i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			g.Name()
			g.FaultLabels()
			g.Faults()
		}
	}()
	wg.Wait()
}
