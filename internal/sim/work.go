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

// Work is what one simulator's engine did over its runs, counted in the
// calls its skips decide whether to make. Unlike wall-clock time it is
// deterministic, so a change that claims to skip work can show exactly
// which calls it saved. A restored simulator counts from zero.
type Work struct {
	CoreTicks  uint64 // gpu.Core.Tick calls
	PartTicks  uint64 // dram.Partition.Tick calls
	L2Reads    uint64 // read-path L2.Access calls, over all partitions
	PopsToMem  uint64 // core-to-memory crossbar Pop calls
	PopsToCore uint64 // memory-to-core crossbar Pop calls
	PopWakes   uint64 // out-queue pops that woke a quiet core
	PopSleeps  uint64 // out-queue pops that left a quiet core asleep
}

// Work returns the engine work done so far.
func (s *Simulator) Work() Work {
	w := s.work
	for _, p := range s.partitions {
		w.L2Reads += p.L2Reads()
	}
	return w
}
