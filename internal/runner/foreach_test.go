package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEach(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	ok := func(int) error { return nil }
	// allAtOnce succeeds only if all n calls are in flight together.
	allAtOnce := func(n int) func(int) error {
		var started atomic.Int64
		all := make(chan struct{})
		return func(int) error {
			if started.Add(1) == int64(n) {
				close(all)
			}
			select {
			case <-all:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("not every call was in flight at once")
			}
		}
	}
	// laterFails: call 1 fails with errA at once; call 0 fails with errB
	// well after it.
	laterFails := func() func(int) error {
		first := make(chan struct{})
		return func(i int) error {
			if i == 1 {
				defer close(first)
				return errA
			}
			<-first
			time.Sleep(50 * time.Millisecond)
			return errB
		}
	}
	cases := []struct {
		name     string
		n, limit int
		// cancelBefore cancels ctx before call cancelBefore starts: 0
		// cancels before ForEach, k > 0 cancels as call k-1 returns
		// (which orders it before call k only under limit 1); -1 never.
		cancelBefore int
		fn           func(i int) error
		wantErr      error
		wantCalls    int64
	}{
		{name: "peak-bounded-by-limit", n: 16, limit: 3, cancelBefore: -1,
			fn: func(int) error { time.Sleep(time.Millisecond); return nil }, wantCalls: 16},
		{name: "no-limit-runs-all-at-once", n: 8, limit: 0, cancelBefore: -1,
			fn: allAtOnce(8), wantCalls: 8},
		{name: "negative-limit-runs-all-at-once", n: 8, limit: -1, cancelBefore: -1,
			fn: allAtOnce(8), wantCalls: 8},
		{name: "zero-n-never-calls", n: 0, limit: 2, cancelBefore: -1,
			fn: func(int) error { return errA }, wantCalls: 0},
		{name: "first-call-error-stops-launches", n: 5, limit: 1, cancelBefore: -1,
			fn: func(i int) error {
				if i == 0 {
					return errA
				}
				return nil
			}, wantErr: errA, wantCalls: 1},
		{name: "cancelled-ctx-starts-nothing", n: 5, limit: 0, cancelBefore: 0,
			fn: ok, wantCalls: 0},
		{name: "cancel-mid-run-stops-launches", n: 5, limit: 1, cancelBefore: 2,
			fn: ok, wantCalls: 2},
		{name: "first-error-wins", n: 2, limit: 0, cancelBefore: -1,
			fn: laterFails(), wantErr: errA, wantCalls: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancelBefore == 0 {
				cancel()
			}
			var calls, inflight, peak atomic.Int64
			err := ForEach(ctx, c.n, c.limit, func(i int) error {
				calls.Add(1)
				cur := inflight.Add(1)
				defer inflight.Add(-1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				if i == c.cancelBefore-1 {
					defer cancel()
				}
				return c.fn(i)
			})
			if err != c.wantErr {
				t.Fatalf("ForEach = %v, want %v", err, c.wantErr)
			}
			if got := calls.Load(); got != c.wantCalls {
				t.Fatalf("%d calls, want %d", got, c.wantCalls)
			}
			if c.limit > 0 && peak.Load() > int64(c.limit) {
				t.Fatalf("%d calls in flight at once, limit %d", peak.Load(), c.limit)
			}
		})
	}
}
