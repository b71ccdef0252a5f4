package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ebm/internal/obs"
)

func TestRetryRecoversFromTransientFailure(t *testing.T) {
	reg := obs.NewRegistry()
	mon := NewMonitor(reg, nil)
	calls := 0
	err := Retry(context.Background(), "t", mon, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
	if got := mon.CacheRetries.Value(); got != 2 {
		t.Fatalf("monitor counted %d retries, want 2", got)
	}
}

func TestRetryGivesUpAfterAttempts(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Retry(context.Background(), "t", nil, func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the final failure", err)
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want exactly 3", calls)
	}
}

func TestRetryHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, "t", nil, func() error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn ran %d times under a cancelled context, want 0", calls)
	}
}

func TestRetryCancelDuringBackoffSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	old := retryDelays
	retryDelays = []time.Duration{time.Hour, time.Hour}
	t.Cleanup(func() { retryDelays = old })
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, "t", nil, func() error { return errors.New("x") })
	}()
	time.Sleep(10 * time.Millisecond) // let it enter the hour-long sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry did not abandon its backoff sleep on cancel")
	}
}

func TestWatchdogTripsWithoutPulses(t *testing.T) {
	reg := obs.NewRegistry()
	mon := NewMonitor(reg, nil)
	w := NewWatchdog(WatchdogOptions{
		Label: "stuck", Deadline: 20 * time.Millisecond, Poll: 5 * time.Millisecond, Mon: mon,
	})
	ctx, cancel := w.Guard(context.Background())
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never tripped with no pulses")
	}
	if !w.Tripped() {
		t.Fatal("Tripped() false after the guarded context cancelled")
	}
	if got := mon.WatchdogTrips.Value(); got != 1 {
		t.Fatalf("monitor counted %d trips, want 1", got)
	}
}

func TestWatchdogPulsesPreventTrip(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{Deadline: 60 * time.Millisecond, Poll: 10 * time.Millisecond})
	ctx, cancel := w.Guard(context.Background())
	defer cancel()
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		w.Pulse()
		time.Sleep(5 * time.Millisecond)
	}
	if w.Tripped() || ctx.Err() != nil {
		t.Fatalf("watchdog tripped despite steady pulses (tripped=%v ctx=%v)", w.Tripped(), ctx.Err())
	}
	cancel()
	if w.Tripped() {
		t.Fatal("cancel after a healthy run must not count as a trip")
	}
}

func TestNilSafety(t *testing.T) {
	var mon *Monitor
	mon.RunCancelled("x")
	mon.CacheRetry("x", 1, errors.New("e"))
	mon.WatchdogTrip("x")

	var w *Watchdog
	w.Pulse()
	w.Stop()
	if w.Tripped() {
		t.Fatal("nil watchdog tripped")
	}
	ctx, cancel := w.Guard(context.Background())
	defer cancel()
	if ctx.Err() != nil {
		t.Fatal("nil watchdog guard returned a dead context")
	}
}

func TestMonitorJournalsResilienceEvents(t *testing.T) {
	j := obs.NewJournal()
	mon := NewMonitor(nil, j)
	mon.RunCancelled("run-a")
	mon.WatchdogTrip("run-b")
	evs := j.Events()
	if len(evs) != 2 {
		t.Fatalf("journal holds %d events, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Kind != obs.EvResilience {
			t.Fatalf("event kind %v, want EvResilience", e.Kind)
		}
	}
}
