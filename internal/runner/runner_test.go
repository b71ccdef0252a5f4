package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebm/internal/obs"
)

func TestDoReturnsValue(t *testing.T) {
	r := New(2)
	defer r.Close()
	v, err := r.Do(nil, "", PriGrid, func() (any, error) { return 42, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	_, err = r.Do(nil, "", PriGrid, func() (any, error) { return nil, fmt.Errorf("boom") })
	if err == nil || err.Error() != "boom" {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	r := New(workers)
	defer r.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Do(nil, "", PriGrid, func() (any, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
	if s := r.Stats(); s.Ran != 24 {
		t.Fatalf("ran %d, want 24", s.Ran)
	}
}

func TestPriorityOrder(t *testing.T) {
	// One worker, blocked on a gate task; everything queued behind it
	// must drain highest-priority first, FIFO within a priority.
	r := New(1)
	defer r.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	go r.Do(nil, "", PriGrid, func() (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	queued := 0
	submit := func(label string, pri int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Do(nil, "", pri, func() (any, error) {
				mu.Lock()
				order = append(order, label)
				mu.Unlock()
				return nil, nil
			})
		}()
		// Serialize submissions so seq numbers follow submission order
		// (the single worker is parked on the gate, so the queue only
		// grows).
		queued++
		deadline := time.Now().Add(2 * time.Second)
		for r.Stats().Queued < queued {
			if time.Now().After(deadline) {
				t.Fatalf("submission %s never queued", label)
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit("grid1", PriGrid)
	submit("eval1", PriEval)
	submit("prof1", PriProfile)
	submit("grid2", PriGrid)
	submit("eval2", PriEval)
	close(gate)
	wg.Wait()

	want := []string{"prof1", "eval1", "eval2", "grid1", "grid2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestSingleflightDedup(t *testing.T) {
	r := New(4)
	defer r.Close()
	var execs atomic.Int64
	gate := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := r.Do(nil, "same-key", PriEval, func() (any, error) {
				execs.Add(1)
				<-gate
				return "shared", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	// Let every caller reach Do before releasing the one execution.
	for r.Stats().Deduped < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions, want 1", n)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	s := r.Stats()
	if s.Deduped != callers-1 {
		t.Fatalf("deduped %d, want %d", s.Deduped, callers-1)
	}
	// The key is forgotten after completion: a later identical submission
	// executes again.
	if _, err := r.Do(nil, "same-key", PriEval, func() (any, error) {
		execs.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 2 {
		t.Fatal("completed key not forgotten")
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	r := New(1)
	defer r.Close()
	_, err := r.Do(nil, "", PriGrid, func() (any, error) { panic("kaboom") })
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestNilRunnerRunsInline(t *testing.T) {
	var r *Runner
	v, err := r.Do(nil, "k", PriEval, func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("nil runner Do = %v, %v", v, err)
	}
	if r.Stats() != (Stats{}) || r.Workers() != 0 {
		t.Fatal("nil runner stats")
	}
	r.Instrument(obs.NewRegistry()) // must not panic
}

func TestInstrument(t *testing.T) {
	r := New(2)
	defer r.Close()
	reg := obs.NewRegistry()
	r.Instrument(reg)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Do(nil, "dup", PriEval, func() (any, error) {
				time.Sleep(2 * time.Millisecond)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	runs := reg.Counter("ebm_runner_tasks_total", "").Value()
	dedup := reg.Counter("ebm_runner_dedup_total", "").Value()
	if runs == 0 {
		t.Fatal("tasks counter not published")
	}
	if runs+dedup != 3 {
		t.Fatalf("runs %d + dedup %d != 3 submissions", runs, dedup)
	}
}

func TestGroupDedupsAndForgets(t *testing.T) {
	var g Group
	var execs atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := g.Do("k", func() (any, error) {
				execs.Add(1)
				<-gate
				return 11, nil
			})
			if err != nil || v.(int) != 11 {
				t.Errorf("Group.Do = %v, %v", v, err)
			}
		}()
	}
	// Release only once the other four callers have joined the in-flight
	// call; a caller arriving after the release would run fn again.
	for {
		g.mu.Lock()
		c := g.m["k"]
		joined := c != nil && c.dups == 4
		g.mu.Unlock()
		if joined {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if execs.Load() != 1 {
		t.Fatalf("%d executions, want 1", execs.Load())
	}
	// Forgotten: next call runs again.
	g.Do("k", func() (any, error) { execs.Add(1); return nil, nil })
	if execs.Load() != 2 {
		t.Fatal("group key not forgotten")
	}
}

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default not a singleton")
	}
	if Default().Workers() < 1 {
		t.Fatal("default pool empty")
	}
}
