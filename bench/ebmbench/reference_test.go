package main

import (
	"reflect"
	"testing"
)

// Every instance of the reference task does the same work, so a run that
// reports another count is a broken task, not a slow host. The second run
// reuses the first run's machines.
func TestReferenceTaskCompletesFixedWork(t *testing.T) {
	for _, threads := range []int{1, 2} {
		r := &reference{threads: threads}
		for run := 1; run <= 2; run++ {
			d, ok := r.run()
			if !ok || !(d > 0) {
				t.Errorf("%d threads, run %d: ok=%v after %v s, want every instance to complete %d requests", threads, run, ok, d, refDone)
			}
		}
	}
}

// Once its machines are built, a run of the reference task allocates
// nothing but its goroutines, so it does not move peak_rss_mb.
func TestReferenceTaskReusesItsMemory(t *testing.T) {
	r := &reference{threads: 1}
	r.run()
	if a := testing.AllocsPerRun(3, func() { r.run() }); a > 10 {
		t.Errorf("a reference run made %v allocations, want at most 10", a)
	}
}

// A pass is scaled by the mean of the reference runs on either side of it.
func TestRefRatiosUseMeanOfBothNeighbours(t *testing.T) {
	got := refRatios([]float64{0.5, 2}, 0.05, 0.15)
	if want := []float64{5, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("refRatios = %v, want %v", got, want)
	}
}
