package policy

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebm/internal/config"
	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/tlp"
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

func TestBudgetTimeoutAndRecovery(t *testing.T) {
	gate := make(chan struct{})
	var slow atomic.Bool
	m := &fakeMgr{name: "slow", onSample: func(s tlp.Sample) tlp.Decision {
		if slow.Load() {
			<-gate
		}
		return tlp.NewDecision(len(s.Apps), 8)
	}}
	g := Wrap(m, Options{Budget: 20 * time.Millisecond})
	defer g.Close()

	if d := g.Initial(2); len(d.TLP) != 2 {
		t.Fatalf("initial: %v", d)
	}
	g.OnSample(sample(2, 100)) // record a last-good

	slow.Store(true)
	d := g.OnSample(sample(2, 200))
	if g.Faults() != 1 {
		t.Fatalf("faults = %d after timeout", g.Faults())
	}
	if d.TLP[0] != 8 {
		t.Fatalf("timeout fallback: %v", d)
	}
	if !strings.Contains(g.FaultLabels()[0], "exceeded") {
		t.Fatalf("label: %v", g.FaultLabels())
	}

	// The worker is still stuck inside the abandoned decision: the next
	// window faults fast, and checkpoint state is unreadable.
	d = g.OnSample(sample(2, 300))
	if g.Faults() != 2 || !strings.Contains(g.FaultLabels()[1], "still running") {
		t.Fatalf("busy fault: %d %v", g.Faults(), g.FaultLabels())
	}
	if _, err := g.StateBytes(); err == nil {
		t.Fatal("StateBytes succeeded while a timed-out decision is running")
	}

	slow.Store(false)
	close(gate) // let the abandoned decision finish
	deadline := time.Now().Add(2 * time.Second)
	for {
		before := g.Faults()
		d = g.OnSample(sample(2, 400))
		if g.Faults() == before {
			break // clean decision: the sandbox recovered
		}
		if time.Now().After(deadline) {
			t.Fatalf("sandbox never recovered: %v", g.FaultLabels())
		}
		time.Sleep(time.Millisecond)
	}
	if d.TLP[0] != 8 {
		t.Fatalf("post-recovery decision: %v", d)
	}
}

func TestClosedGuardFaults(t *testing.T) {
	m := &fakeMgr{name: "m", onSample: func(s tlp.Sample) tlp.Decision {
		return tlp.NewDecision(len(s.Apps), 8)
	}}
	g := Wrap(m, Options{Budget: time.Second})
	g.Initial(2)
	g.Close()
	g.OnSample(sample(2, 10))
	if g.Faults() != 1 || !strings.Contains(g.FaultLabels()[0], "closed") {
		t.Fatalf("closed guard: %d %v", g.Faults(), g.FaultLabels())
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

// The Guard's accessors are safe against concurrent decision traffic
// (exercised under -race by the verify matrix).
func TestGuardConcurrentAccess(t *testing.T) {
	m := &fakeMgr{name: "m", onSample: func(s tlp.Sample) tlp.Decision {
		return tlp.NewDecision(len(s.Apps), 8)
	}}
	g := Wrap(m, Options{Budget: 50 * time.Millisecond})
	defer g.Close()
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
