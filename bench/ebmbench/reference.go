package main

// The reference task: a fixed amount of work, timed next to every pass and
// every set-up build, that tells the benchmark how fast the host is running
// at that moment. On a shared host, other tenants slow the simulator by tens
// of percent for seconds to minutes at a time; a pass divided by the
// reference runs beside it keeps only the program's own cost.
//
// The task is a small memory-system simulation of its own — cores with L1
// tag arrays, partitions with L2 tag arrays and FR-FCFS DRAM queues — so
// that it stalls on the same host resources as the engine does. Simple
// loops do not: a dependent ALU chain or a pointer walk slows far less than
// the engine when the host is busy. It imports nothing from ebm/internal,
// so no change to the program moves it.

import (
	"sync"
	"time"
)

const (
	// refSteps is the reference task's length in its own cycles, about
	// 0.1 s on a 2.1 GHz Xeon core.
	refSteps = 120_000
	// refSeconds is the duration the reference task stands for.
	// Normalized times are measured times scaled by refSeconds over the
	// reference task's measured time beside them: seconds on a host that
	// runs the reference task in exactly refSeconds.
	refSeconds = 0.1
	// refEvery is how much pass time may accumulate between two runs of
	// the reference task; short passes share one.
	refEvery = 1.0
)

// refDone is how many memory requests the reference task completes in
// refSteps cycles; a run that completes another number is a failed check.
const refDone = 129_894

// reference runs the reference task on threads goroutines at once, one
// private instance each, so that a workload that keeps every CPU busy is
// compared with a reference that does too. The instances are built once
// and reset before each run, so a run allocates nothing and leaves the
// heap, and with it peak_rss_mb, as the passes left it.
type reference struct {
	threads  int
	machines []*refMachine
}

// run times one run of the task and reports whether every instance
// completed the expected work.
func (r *reference) run() (float64, bool) {
	for len(r.machines) < r.threads {
		r.machines = append(r.machines, newRefMachine())
	}
	done := make([]uint64, r.threads)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range done {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done[i] = r.machines[i].run(refSteps)
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, n := range done {
		if n != refDone {
			return d, false
		}
	}
	return d, true
}

// refRatios divides each of walls, measured between two runs of the
// reference task that took before and after seconds, by their mean.
func refRatios(walls []float64, before, after float64) []float64 {
	out := make([]float64, len(walls))
	for i, w := range walls {
		out[i] = 2 * w / (before + after)
	}
	return out
}

// --- the reference machine ---

const (
	refCores    = 16
	refParts    = 8
	refBanks    = 16
	refMaxMiss  = 8 // outstanding misses per core
	refAddrBits = 22
)

type refLine struct {
	tag   uint64
	stamp uint32
	dirty bool
}

// refCache is a set-associative tag array with LRU replacement.
type refCache struct {
	sets, ways int
	lines      []refLine
	clock      uint32
}

func (c *refCache) reset() {
	clear(c.lines)
	c.clock = 0
}

// access looks addr up, fills it on a miss, and reports a hit.
func (c *refCache) access(addr uint64, write bool) bool {
	c.clock++
	set := int(addr % uint64(c.sets))
	ls := c.lines[set*c.ways : (set+1)*c.ways]
	victim := 0
	for i := range ls {
		if ls[i].tag == addr {
			ls[i].stamp = c.clock
			ls[i].dirty = ls[i].dirty || write
			return true
		}
		if ls[i].stamp < ls[victim].stamp {
			victim = i
		}
	}
	ls[victim] = refLine{tag: addr, stamp: c.clock, dirty: write}
	return false
}

type refReq struct {
	core int
	row  uint64
}

type refBank struct {
	openRow   uint64
	busyUntil uint64
}

type refPart struct {
	l2     refCache
	queue  [refCores * refMaxMiss]refReq // in arrival order
	queued int
	banks  [refBanks]refBank
}

type refCore struct {
	l1      refCache
	pending int
	stream  uint64
	base    uint64
}

// refMachine is one allocation, plus one for all its tag arrays, so that
// the instances on different threads share no cache line. Built from small
// per-core objects instead, the two-thread task ran 0.10 s in some
// processes and 0.14 s in others, depending on where the heap placed them.
type refMachine struct {
	cores [refCores]refCore
	parts [refParts]refPart
	cycle uint64
	rng   uint64
	done  uint64
}

func newRefMachine() *refMachine {
	const l1Sets, l1Ways, l2Sets, l2Ways = 64, 4, 512, 16
	m := &refMachine{}
	lines := make([]refLine, refCores*l1Sets*l1Ways+refParts*l2Sets*l2Ways)
	take := func(n int) []refLine {
		ls := lines[:n:n]
		lines = lines[n:]
		return ls
	}
	for i := range m.cores {
		m.cores[i].l1 = refCache{sets: l1Sets, ways: l1Ways, lines: take(l1Sets * l1Ways)}
		m.cores[i].base = uint64(i) << 24
	}
	for i := range m.parts {
		m.parts[i].l2 = refCache{sets: l2Sets, ways: l2Ways, lines: take(l2Sets * l2Ways)}
	}
	return m
}

// reset returns the machine to its initial state, keeping its memory.
func (m *refMachine) reset() {
	m.cycle, m.rng, m.done = 0, 77, 0
	for i := range m.cores {
		c := &m.cores[i]
		c.l1.reset()
		c.pending, c.stream = 0, uint64(i)*7919
	}
	for i := range m.parts {
		p := &m.parts[i]
		p.l2.reset()
		p.queued = 0
		p.banks = [refBanks]refBank{}
	}
}

// run resets the machine, simulates n cycles and returns the requests
// DRAM completed.
func (m *refMachine) run(n int) uint64 {
	m.reset()
	for i := 0; i < n; i++ {
		m.step()
	}
	return m.done
}

func (m *refMachine) step() {
	m.cycle++
	for ci := range m.cores {
		c := &m.cores[ci]
		if c.pending >= refMaxMiss {
			continue
		}
		m.rng ^= m.rng << 13
		m.rng ^= m.rng >> 7
		m.rng ^= m.rng << 17
		if m.rng&3 == 0 {
			continue // no memory instruction this cycle
		}
		var addr uint64
		if m.rng&64 == 0 {
			c.stream++
			addr = c.base + c.stream
		} else {
			addr = (m.rng >> 20) % (1 << refAddrBits)
		}
		if c.l1.access(addr, m.rng&8 == 0) {
			continue
		}
		p := &m.parts[addr%refParts]
		if p.l2.access(addr>>3, false) {
			continue
		}
		// A core has at most refMaxMiss misses out, so the queue has room.
		c.pending++
		p.queue[p.queued] = refReq{core: ci, row: addr >> 10}
		p.queued++
	}
	for pi := range m.parts {
		p := &m.parts[pi]
		q := p.queue[:p.queued]
		if len(q) == 0 {
			continue
		}
		// FR-FCFS: the oldest request to an open row, else the oldest.
		pick := 0
		for i, r := range q {
			b := &p.banks[r.row%refBanks]
			if b.busyUntil <= m.cycle && b.openRow == r.row {
				pick = i
				break
			}
		}
		r := q[pick]
		b := &p.banks[r.row%refBanks]
		if b.busyUntil > m.cycle {
			continue
		}
		latency := uint64(12)
		if b.openRow != r.row {
			latency = 40
			b.openRow = r.row
		}
		b.busyUntil = m.cycle + latency
		copy(q[pick:], q[pick+1:])
		p.queued--
		m.cores[r.core].pending--
		m.done++
	}
}
