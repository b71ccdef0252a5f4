package obs

import "testing"

func TestJournalRecordAndSnapshot(t *testing.T) {
	j := NewJournal()
	seen := 0
	j.Subscribe(func(Event) { seen++ })
	j.Record(Event{Cycle: 100, Kind: EvWindow, App: -1, Window: 1})
	j.Record(Event{Cycle: 150, Kind: EvDecision, App: -1, Label: "tlp=[24 1]"})
	if j.Len() != 2 {
		t.Fatalf("len = %d, want 2", j.Len())
	}
	if seen != 2 {
		t.Fatalf("subscriber saw %d events, want 2", seen)
	}
	ev := j.Events()
	ev[0].Cycle = 999 // snapshot must be a copy
	if j.Events()[0].Cycle != 100 {
		t.Fatal("Events returned aliased storage")
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(Event{})
	if j.Len() != 0 || j.Events() != nil {
		t.Fatal("nil journal must be inert")
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvWindow: "window", EvAppWindow: "app-window", EvDecision: "decision",
		EvWarmup: "warmup", EvPhase: "phase", EvKernel: "kernel",
		EvProgress: "progress", EventKind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("kind %d = %q, want %q", k, got, want)
		}
	}
}

func TestObserverEnabled(t *testing.T) {
	var nilObs *Observer
	if nilObs.Enabled() {
		t.Fatal("nil observer enabled")
	}
	if (&Observer{}).Enabled() {
		t.Fatal("empty observer enabled")
	}
	if !(&Observer{Journal: NewJournal()}).Enabled() {
		t.Fatal("journal-only observer disabled")
	}
	if !(&Observer{Metrics: NewRegistry()}).Enabled() {
		t.Fatal("metrics-only observer disabled")
	}
}
