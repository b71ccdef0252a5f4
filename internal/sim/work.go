package sim

// Engine-work accounting: a process-wide counter of core cycles the
// engine actually executed, maintained at window granularity so the hot
// loop stays untouched. Wall-clock measures how long a sweep took;
// cyclesSimulated measures how much simulation it really paid for —
// cache hits add nothing, checkpoint forks add only their tail, and
// adaptively pruned candidates add only their short horizons
// (TestBuildGridForksSimulateOnlyTails pins the fork case). sweep
// reports it at exit.

import (
	"sync/atomic"

	"ebm/internal/obs"
)

var (
	cyclesSimulated atomic.Uint64
	workCounter     atomic.Pointer[obs.Counter] // mirrors into a registry once InstrumentWork runs
)

// CyclesSimulated returns the process-lifetime count of core cycles the
// engine has executed (restored checkpoint prefixes excluded: a forked
// run counts only the cycles it simulates itself).
func CyclesSimulated() uint64 { return cyclesSimulated.Load() }

// InstrumentWork registers the ebm_cycles_simulated counter on reg and
// mirrors all engine work into it, seeded with the work already done.
// Exposed on `sweep -listen` so a scrape shows work, not just progress.
func InstrumentWork(reg *obs.Registry) *obs.Counter {
	c := reg.Counter("ebm_cycles_simulated",
		"core cycles actually executed by the engine (cache hits and restored checkpoint prefixes excluded)")
	c.Set(cyclesSimulated.Load())
	workCounter.Store(c)
	return c
}

// addWork credits n executed cycles; called at window boundaries and at
// run exit, never inside the cycle loop.
func addWork(n uint64) {
	if n == 0 {
		return
	}
	cyclesSimulated.Add(n)
	workCounter.Load().Add(n)
}
