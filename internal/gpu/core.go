// Package gpu models one GPU core (streaming multiprocessor / compute
// unit): its warp contexts, two greedy-then-oldest (GTO) warp schedulers,
// the static warp-limiting (SWL) TLP knob the paper's mechanisms actuate,
// the per-core L1 data cache with MSHRs, and the memory-instruction
// coalescing front end.
package gpu

import (
	"fmt"
	"math/bits"

	"ebm/internal/cache"
	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/mem"
)

// wheelSize bounds how far in the future a warp wake-up may be scheduled
// (ALU latency or L1 hit latency); both are far below 64 cycles.
const wheelSize = 64

// scheduler is one GTO warp scheduler owning a contiguous age-ordered block
// of the core's warps. Bit w of the masks refers to its w-th warp (0 is
// oldest). Its fields are exported so that engine checkpoints encode it
// as is; Base and Count are fixed at construction.
type scheduler struct {
	Base       int // core-local index of warp 0
	Count      int
	ReadyMask  uint64
	MemWait    uint64 // warps with outstanding fills
	LastIssued int    // scheduler-local index, -1 if none
}

func (s *scheduler) activeMask(tlp int) uint64 {
	if tlp >= s.Count {
		return (uint64(1) << s.Count) - 1
	}
	return (uint64(1) << tlp) - 1
}

// CoreStats is the per-core telemetry read by the sampling hardware and
// the TLP managers.
type CoreStats struct {
	InstRetired  uint64 // warp instructions issued/retired
	MemInsts     uint64
	IssuedSlots  uint64 // issue slots used (<= 2 per cycle)
	ActiveCycles uint64 // cycles with at least one issue
	IdleCycles   uint64 // cycles with no issue: no ready active warp, or every one stalled
	MemStall     uint64 // idle cycles where an active warp waited on memory
	StallMSHR    uint64 // issue aborts due to full MSHRs/inject queue
	// FastForward counts the cycles of a quiet span that Settle credited
	// instead of Tick: cycles of a core with no issuable warp, or whose
	// every ready scheduler stalls on MSHR or out-queue space. It is the
	// one counter the fast-forward changes; every other counter reads as
	// if each of those cycles had been ticked.
	FastForward uint64
}

// quietSpan is the stretch of cycles a quiet Tick (see Tick) would repeat
// exactly: open from the cycle after that Tick until Wake. Its fields are
// exported so that engine checkpoints encode it as is.
type quietSpan struct {
	Open    bool
	From    uint64 // first cycle not yet credited
	MemWait bool   // an active warp waits on a fill: every cycle is a memory stall
	Stalls  int    // issue aborts per cycle
}

// Core is one streaming multiprocessor running warps of a single
// application (the paper maps each application to an exclusive core set).
type Core struct {
	ID  int
	App int

	cfg *config.GPU
	L1  *cache.Cache

	streams      []*kernel.WarpStream
	pendingFills []int // per warp: fills it still waits for
	scheds       []scheduler
	tlp          int // active warps per scheduler

	mshr    *mem.MSHRTable[int32] // line -> core-local warp waiters
	pool    *mem.Pool             // request free list (nil: plain allocation)
	outq    []*mem.Request
	outqCap int
	// wheel holds the pending wake-ups: slot t's row, wheel[t*S:(t+1)*S]
	// for S schedulers, is each scheduler's mask of warps that become
	// ready at a cycle t mod wheelSize. wheelSlots has bit t set exactly
	// when row t is non-empty.
	wheel      []uint64
	wheelSlots uint64

	// mshrBlocked is, per scheduler, the warps whose current load last
	// aborted on MSHR capacity. Until a fill, the L1 gains no line and
	// the MSHR file no room, so such a load would abort again: its retry
	// skips the probe. Every event that can change that clears it
	// (HandleFill, SetBypassL1, SetState, PhaseSwitched). It is derived
	// and never encoded.
	mshrBlocked []uint64

	bypassL1 bool

	// room is the out-queue room the last Tick's cheapest abort on
	// out-queue space needs (0 if no abort was on out-queue space).
	room int

	span quietSpan

	Stats CoreStats

	// missBuf is scratch for the two-pass memory issue.
	missBuf []uint64
}

// NewCore builds core id running app's kernel with the given warp streams
// (len must equal cfg.MaxWarpsPerCore). numApps sizes the L1's per-app
// stat vectors (only this app's slot is used, but keeping the shape
// uniform simplifies the samplers).
func NewCore(id, app int, cfg *config.GPU, streams []*kernel.WarpStream, numApps int) *Core {
	if len(streams) != cfg.MaxWarpsPerCore {
		panic(fmt.Sprintf("gpu: core %d got %d streams, want %d", id, len(streams), cfg.MaxWarpsPerCore))
	}
	c := &Core{
		ID:           id,
		App:          app,
		cfg:          cfg,
		L1:           cache.New(cfg.L1, numApps),
		streams:      append([]*kernel.WarpStream(nil), streams...),
		pendingFills: make([]int, len(streams)),
		mshr:         mem.NewMSHRTable[int32](cfg.L1MSHRs),
		outqCap:      16,
		tlp:          cfg.MaxTLPPerScheduler(),
	}
	per := cfg.MaxWarpsPerCore / cfg.SchedulersPerCore
	c.scheds = make([]scheduler, cfg.SchedulersPerCore)
	c.wheel = make([]uint64, wheelSize*cfg.SchedulersPerCore)
	c.mshrBlocked = make([]uint64, cfg.SchedulersPerCore)
	for i := range c.scheds {
		c.scheds[i] = scheduler{
			Base:       i * per,
			Count:      per,
			ReadyMask:  (uint64(1) << per) - 1,
			LastIssued: -1,
		}
	}
	return c
}

// SetTLP sets the active-warp limit per scheduler (the SWL knob). Values
// are clamped to [1, warps-per-scheduler].
func (c *Core) SetTLP(tlp int) {
	maxTLP := c.cfg.MaxTLPPerScheduler()
	if tlp < 1 {
		tlp = 1
	}
	if tlp > maxTLP {
		tlp = maxTLP
	}
	c.tlp = tlp
}

// TLP returns the current active-warp limit per scheduler.
func (c *Core) TLP() int { return c.tlp }

// SetPool attaches a request free list shared with the rest of the
// machine. A nil pool (the default) allocates requests from the heap.
func (c *Core) SetPool(p *mem.Pool) { c.pool = p }

// SetBypassL1 enables or disables L1 bypassing for this core (used by the
// Mod+Bypass baseline).
func (c *Core) SetBypassL1(on bool) {
	c.bypassL1 = on
	clear(c.mshrBlocked)
}

// PhaseSwitched tells the core that its warp streams switched kernel
// phase (kernel.WarpStream.SetPhase), which drops each warp's current
// instruction.
func (c *Core) PhaseSwitched() { clear(c.mshrBlocked) }

// BypassL1 reports whether the L1 is being bypassed.
func (c *Core) BypassL1() bool { return c.bypassL1 }

// CanInject reports whether the out-queue has room for n more requests.
func (c *Core) CanInject(n int) bool { return len(c.outq)+n <= c.outqCap }

// PeekRequest returns the next request destined for the interconnect
// without removing it, or nil when the out-queue is empty.
func (c *Core) PeekRequest() *mem.Request {
	if len(c.outq) == 0 {
		return nil
	}
	return c.outq[0]
}

// PopRequest removes the next request destined for the interconnect.
func (c *Core) PopRequest() *mem.Request {
	if len(c.outq) == 0 {
		return nil
	}
	r := c.outq[0]
	copy(c.outq, c.outq[1:])
	c.outq[len(c.outq)-1] = nil
	c.outq = c.outq[:len(c.outq)-1]
	return r
}

// PendingRequests returns the out-queue depth.
func (c *Core) PendingRequests() int { return len(c.outq) }

// OutstandingMisses returns the number of distinct lines in flight.
func (c *Core) OutstandingMisses() int { return c.mshr.Len() }

// schedulerOf returns the scheduler owning core-local warp w and w's
// scheduler-local index.
func (c *Core) schedulerOf(w int) (*scheduler, int) {
	per := c.scheds[0].Count
	si := w / per
	return &c.scheds[si], w - c.scheds[si].Base
}

// scheduleWake arranges for warp li of scheduler si to become ready after
// delay cycles.
func (c *Core) scheduleWake(si, li int, now uint64, delay int) {
	if delay <= 0 {
		delay = 1
	}
	if delay >= wheelSize {
		delay = wheelSize - 1
	}
	slot := (now + uint64(delay)) % wheelSize
	c.wheel[int(slot)*len(c.scheds)+si] |= uint64(1) << li
	c.wheelSlots |= uint64(1) << slot
}

// HandleFill delivers a returned line: it fills the L1 (unless bypassing)
// and wakes every warp that was waiting on it.
func (c *Core) HandleFill(lineAddr uint64) {
	clear(c.mshrBlocked)
	if !c.bypassL1 {
		c.L1.Fill(lineAddr, c.App)
	}
	waiters := c.mshr.Remove(lineAddr)
	if waiters == nil {
		return
	}
	for _, w32 := range waiters {
		w := int(w32)
		c.pendingFills[w]--
		if c.pendingFills[w] <= 0 {
			c.pendingFills[w] = 0
			s, li := c.schedulerOf(w)
			s.ReadyMask |= uint64(1) << li
			s.MemWait &^= uint64(1) << li
		}
	}
	c.mshr.Release(waiters)
}

// Tick advances the core by one cycle: wake-ups, then one issue attempt
// per scheduler. It reports whether the core is quiet: nothing issued and
// no wake-up is scheduled. A quiet core's every later Tick repeats this one
// exactly (same picks, same aborts) until an external event touches it: a
// fill (HandleFill), an out-queue pop after which Unblocked holds, a TLP or
// bypass change, or a kernel phase switch on its warp streams. So a quiet
// Tick opens a span from the next cycle. A caller that skips the span's
// ticks credits them with Settle and ends the span with Wake before it
// ticks the core again; a core ticked every cycle needs neither, since
// each Tick replaces the span.
func (c *Core) Tick(now uint64) (quiet bool) {
	if slot := now % wheelSize; c.wheelSlots&(uint64(1)<<slot) != 0 {
		n := len(c.scheds)
		row := c.wheel[int(slot)*n:][:n]
		for si, m := range row {
			c.scheds[si].ReadyMask |= m
			row[si] = 0
		}
		c.wheelSlots &^= uint64(1) << slot
	}

	issued, stalls := 0, 0
	memWait := false
	c.room = 0
	for si := range c.scheds {
		s := &c.scheds[si]
		act := s.activeMask(c.tlp)
		if s.MemWait&act != 0 {
			memWait = true
		}
		ready := s.ReadyMask & act
		if ready == 0 {
			continue
		}
		var pick int
		if s.LastIssued >= 0 && ready&(uint64(1)<<s.LastIssued) != 0 {
			pick = s.LastIssued // greedy: stick with the current warp
		} else {
			pick = bits.TrailingZeros64(ready) // then oldest
		}
		w, bit := s.Base+pick, uint64(1)<<pick
		ok, need := false, 0
		if c.mshrBlocked[si]&bit != 0 {
			c.Stats.StallMSHR++ // the warp's load would abort again
		} else if c.streams[w].TakeCompute() {
			ok = true
			c.Stats.InstRetired++
			if delay := c.alu(); delay > 1 {
				s.ReadyMask &^= bit
				c.scheduleWake(si, pick, now, delay)
			}
		} else {
			ok, need = c.issueMem(si, pick, now)
		}
		if ok {
			s.LastIssued = pick
			issued++
		} else {
			stalls++
			if need > 0 && (c.room == 0 || need < c.room) {
				c.room = need
			}
		}
	}

	if issued > 0 {
		c.Stats.IssuedSlots += uint64(issued)
		c.Stats.ActiveCycles++
	} else {
		c.Stats.IdleCycles++
		if memWait {
			c.Stats.MemStall++
		}
	}
	quiet = issued == 0 && c.wheelSlots == 0
	if quiet {
		c.span = quietSpan{Open: true, From: now + 1, MemWait: memWait, Stalls: stalls}
	} else {
		c.span = quietSpan{}
	}
	return quiet
}

// Quiet reports whether the core has an open quiet span.
func (c *Core) Quiet() bool { return c.span.Open }

// Unblocked reports whether the out-queue has the room the last Tick's
// cheapest issue abort on out-queue space needs; false when no abort was
// on out-queue space (MSHR capacity only a fill relieves). After a quiet
// Tick, a pop makes the next Tick differ exactly when Unblocked holds.
func (c *Core) Unblocked() bool { return c.room > 0 && c.CanInject(c.room) }

// Settle credits the open quiet span's cycles before upTo exactly as that
// many quiet Ticks would have: each is an idle cycle, a memory stall when
// an active warp waits on a fill, and the span's issue aborts. The span
// stays open from upTo.
func (c *Core) Settle(upTo uint64) {
	sp := &c.span
	if !sp.Open || upTo <= sp.From {
		return
	}
	n := upTo - sp.From
	c.Stats.IdleCycles += n
	c.Stats.FastForward += n
	if sp.MemWait {
		c.Stats.MemStall += n
	}
	c.Stats.StallMSHR += n * uint64(sp.Stalls)
	sp.From = upTo
}

// Wake settles the quiet span up to upTo and ends it: the core is ticked
// again from upTo on.
func (c *Core) Wake(upTo uint64) {
	c.Settle(upTo)
	c.span = quietSpan{}
}

// issueMem tries to issue the current memory instruction of scheduler
// si's warp at local index li; it returns false on a structural stall (the
// warp stays ready and will retry), with the out-queue room the
// instruction needs, or 0 when it stalled on MSHR capacity.
func (c *Core) issueMem(si, li int, now uint64) (ok bool, need int) {
	s := &c.scheds[si]
	bit := uint64(1) << li
	w := s.Base + li
	stream := c.streams[w]
	inst := stream.Current()

	if inst.Write {
		// Stores are write-through and fire-and-forget: they need out-queue
		// space but do not block the warp on completion.
		if !c.CanInject(len(inst.Lines)) {
			c.Stats.StallMSHR++
			return false, len(inst.Lines)
		}
		for _, line := range inst.Lines {
			r := c.pool.Get()
			r.Kind, r.LineAddr, r.App, r.Core, r.Born = mem.WriteReq, line, c.App, c.ID, now
			c.outq = append(c.outq, r)
		}
		stream.Advance()
		c.Stats.InstRetired++
		c.Stats.MemInsts++
		return true, 0
	}

	// Load: classify each line (two passes so a structural stall leaves
	// no side effects and the warp can retry the identical instruction).
	c.missBuf = c.missBuf[:0]
	newLines := 0
	for _, line := range inst.Lines {
		if !c.bypassL1 && c.L1.Contains(line) {
			continue
		}
		c.missBuf = append(c.missBuf, line)
		if !c.mshr.Contains(line) && !containsLine(c.missBuf[:len(c.missBuf)-1], line) {
			newLines++
		}
	}
	if newLines > 0 {
		if c.mshr.Len()+newLines > c.mshr.Cap() {
			c.mshrBlocked[si] |= bit
			c.Stats.StallMSHR++
			return false, 0
		}
		if !c.CanInject(newLines) {
			c.Stats.StallMSHR++
			return false, newLines
		}
	}

	// Commit: record L1 stats, allocate MSHRs, send requests.
	fills := 0
	for _, line := range inst.Lines {
		var hit bool
		if c.bypassL1 {
			hit = false
			c.L1.Stats[c.App].Record(true)
		} else {
			hit = c.L1.Access(line, c.App)
		}
		if hit {
			continue
		}
		if waiters := c.mshr.Waiters(line); waiters != nil {
			if !waitersContain(waiters, int32(w)) {
				c.mshr.Append(line, int32(w))
				fills++
			} else {
				// The same warp already waits on this line (duplicate line
				// in a divergent access); one fill wakes it once.
			}
			continue
		}
		c.mshr.Add(line, int32(w))
		fills++
		r := c.pool.Get()
		r.Kind, r.LineAddr, r.App, r.Core, r.Born = mem.ReadReq, line, c.App, c.ID, now
		c.outq = append(c.outq, r)
	}

	stream.Advance()
	c.Stats.InstRetired++
	c.Stats.MemInsts++

	s.ReadyMask &^= bit
	if fills == 0 {
		// All hits: the warp waits out the L1 hit latency.
		c.scheduleWake(si, li, now, c.cfg.L1HitLatency)
		return true, 0
	}
	c.pendingFills[w] += fills
	s.MemWait |= bit
	return true, 0
}

// alu returns the issue-to-ready delay of a compute instruction for this
// core's application.
func (c *Core) alu() int {
	// The ALU delay is a kernel parameter; all warps of a core share it.
	return c.streams[0].ALUDelay()
}

func containsLine(lines []uint64, line uint64) bool {
	for _, l := range lines {
		if l == line {
			return true
		}
	}
	return false
}

func waitersContain(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
