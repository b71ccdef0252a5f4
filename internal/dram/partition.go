// Package dram models one GPU memory partition: the L2 cache slice, its
// MSHRs, and the GDDR5 memory controller behind it (Table I).
//
// The controller implements FR-FCFS scheduling (first-ready row hits ahead
// of older row misses) over a per-partition request queue, with per-bank
// row-buffer state and the Hynix GDDR5 timing constraints tCL, tRP, tRAS,
// tRCD, tRRD, tCCD, and tWR. The data bus serializes line transfers at BL
// memory cycles per line, which sets the attainable bandwidth ceiling the
// paper's BW metric is normalized against.
//
// All partition logic runs on the memory clock; the simulator converts to
// and from core cycles at the boundary.
package dram

import (
	"fmt"
	"math"
	"math/bits"

	"ebm/internal/cache"
	"ebm/internal/config"
	"ebm/internal/mem"
)

// bank holds per-DRAM-bank row-buffer and timing state, in memory cycles.
// Its fields are exported so that engine checkpoints encode it as is.
type bank struct {
	OpenRow   int64  // -1 when closed
	ActAt     uint64 // time of the last activate (tRAS reference)
	ColReady  uint64 // earliest next column command on this bank
	LastColAt uint64 // last column command (tWR reference)
	PreDone   uint64 // precharge completion time when closing
}

type eventKind uint8

const (
	evL2Hit eventKind = iota
	evDRAMRead
)

type event struct {
	at    uint64
	kind  eventKind
	req   *mem.Request
	local uint64 // req's partition-local line address; derived, like dramAddr
}

// dramAddr is the decoded DRAM address of one FR-FCFS queue entry: its
// partition-local line address (the L2 index its fill uses) and the bank
// and row it maps to. It is derived state: pushDRAM computes it once at
// enqueue, and SetState recomputes it from the queued requests.
type dramAddr struct {
	local uint64
	row   int64
	bank  int
}

// eventHeap is a binary min-heap on event.at. It is hand-rolled rather
// than backed by container/heap because the interface{}-based API boxes
// every pushed and popped event, which dominated the cycle path's heap
// allocations; the sift order is identical to container/heap's, so the
// pop order among equal timestamps — and therefore the simulation — is
// unchanged.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; j > 0; {
		parent := (j - 1) / 2
		if s[j].at >= s[parent].at {
			break
		}
		s[j], s[parent] = s[parent], s[j]
		j = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].at < s[j].at {
			j = j2
		}
		if s[j].at >= s[i].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	s[n] = event{} // drop the *mem.Request reference
	*h = s[:n]
	return e
}

// Stats aggregates the partition-side per-application telemetry the
// paper's designated-partition sampling reads (Fig. 8 items 4–6).
type Stats struct {
	BWBytes    uint64 // data-bus bytes transferred (reads+writes)
	RowHits    uint64
	RowMisses  uint64 // activates (closed or conflict)
	DRAMReads  uint64
	DRAMWrites uint64
	LatencySum uint64 // read latency in mem cycles, summed
}

// Partition is one memory controller plus its L2 slice.
type Partition struct {
	ID  int
	cfg *config.GPU

	L2 *cache.Cache

	inq      []*mem.Request // bounded input queue fed by the interconnect
	inqCap   int
	mshr     *mem.MSHRTable[*mem.Request] // line -> read waiters in DRAM
	pool     *mem.Pool                    // request free list (nil: plain allocation)
	dramQ    []*mem.Request               // FR-FCFS queue
	dramAddr []dramAddr                   // dramAddr[i] decodes dramQ[i]
	dramQCap int

	banks     []bank
	busFreeAt uint64
	lastActAt uint64
	lastColAt uint64

	events eventHeap

	// nextTick is the first memory cycle at which Tick can change any of
	// the partition's state beyond a stalled head's retry: Tick recomputes
	// it, Enqueue lowers it and SetState resets it.
	nextTick uint64

	// retryFrom is the first memory cycle whose retry of a stalled
	// input-queue head has not been counted yet (0 when the head is not
	// stalled): the cycles before nextTick that the simulator skips are
	// retries, which Settle credits in bulk.
	retryFrom uint64

	resp []*mem.Request // completed responses awaiting the return network

	l2LatMem uint64 // L2 hit latency converted to memory cycles

	// Per-app telemetry.
	Apps []Stats

	// Refreshes counts all-bank refresh operations (zero unless the
	// timing's TREFI is configured).
	Refreshes   uint64
	nextRefresh uint64

	// MSHRStalls counts memory cycles the input-queue head was blocked by
	// a full L2 MSHR file or DRAM queue (structural back-pressure toward
	// the interconnect); BusBusy accumulates the memory cycles the data
	// bus spent bursting, so its growth over a window divided by the
	// window's memory cycles is the bus utilization. Both are observability counters: they feed the obs
	// exporters and never influence scheduling.
	MSHRStalls uint64
	BusBusy    uint64

	// l2Reads counts read-path L2 Access calls: engine work, not model
	// state, so snapshots leave it out.
	l2Reads uint64

	// Derived address mapping. The partition and bank counts are powers
	// of two (config.GPU.Validate), so their divisions are shifts and
	// masks; the interleave and the row size need not be.
	interleave uint64
	rowBytes   uint64
	partShift  uint   // log2 of the partition count
	bankShift  uint   // log2 of the bank count
	bankMask   uint64 // bank count - 1
}

// NewPartition builds partition id of the machine described by cfg with
// per-app statistics for numApps applications.
func NewPartition(id int, cfg *config.GPU, numApps int) *Partition {
	l2LatMem := uint64(float64(cfg.L2HitLatency) * cfg.MemCyclesPerCoreCycle())
	if l2LatMem == 0 {
		l2LatMem = 1
	}
	l2MSHRs := cfg.L2MSHRs
	if l2MSHRs <= 0 {
		l2MSHRs = 64
	}
	p := &Partition{
		ID:         id,
		cfg:        cfg,
		L2:         cache.New(cfg.L2, numApps),
		inqCap:     32,
		mshr:       mem.NewMSHRTable[*mem.Request](l2MSHRs),
		dramQCap:   64,
		banks:      make([]bank, cfg.BanksPerMC),
		l2LatMem:   l2LatMem,
		Apps:       make([]Stats, numApps),
		interleave: uint64(cfg.AddrInterleave),
		rowBytes:   uint64(cfg.RowBytes),
		partShift:  uint(bits.TrailingZeros(uint(cfg.NumMemPartitions))),
		bankShift:  uint(bits.TrailingZeros(uint(cfg.BanksPerMC))),
		bankMask:   uint64(cfg.BanksPerMC - 1),
	}
	for i := range p.banks {
		p.banks[i].OpenRow = -1
	}
	return p
}

// SetPool attaches a request free list shared with the rest of the
// machine. A nil pool (the default) allocates from and releases to the
// garbage collector.
func (p *Partition) SetPool(pool *mem.Pool) { p.pool = pool }

// CanAccept reports whether the input queue has room for another request;
// the simulator uses it for interconnect back-pressure.
func (p *Partition) CanAccept() bool { return len(p.inq) < p.inqCap }

// NextTick returns the first memory cycle at which Tick can change any
// of the partition's state beyond a stalled head's retry: a Tick at an
// earlier cycle is a no-op or a retry that Settle credits, so the
// simulator skips it. It is the cycle after the last Tick while refresh
// is modeled (refresh fires on a wall-clock schedule) or the input queue
// holds a head that may be accepted. When the queue is empty, or its head
// is a read stalled on an L2 miss behind a full MSHR file or FR-FCFS
// queue, or a write stalled on an L2 miss behind a full FR-FCFS queue, it
// is the earlier of the next completion event and, with requests in the
// FR-FCFS queue, the first cycle the scheduler's run-ahead horizon lets
// one issue: only those can lift the stall. With nothing pending it is
// MaxUint64.
func (p *Partition) NextTick() uint64 { return p.nextTick }

// Enqueue places a request arriving from the interconnect into the input
// queue at memory cycle now. The caller must have checked CanAccept. A
// request that becomes the head lowers NextTick to now; one queued behind
// a head leaves it, since the head is either probed every cycle or
// stalled, and a stalled head blocks the requests behind it.
func (p *Partition) Enqueue(req *mem.Request, now uint64) {
	if len(p.inq) >= p.inqCap {
		panic("dram: Enqueue past capacity; caller must check CanAccept")
	}
	req.MemBorn = now
	p.inq = append(p.inq, req)
	if len(p.inq) == 1 {
		p.nextTick = min(p.nextTick, now)
	}
}

// Settle counts the stalled head's retries of the skipped memory cycles
// before upTo, exactly as Ticks at those cycles would have: a read retry
// is one L2 access and miss for the head's app and one MSHR stall; a
// write retry records nothing. Tick settles first; the simulator also
// settles before it reads the partition's counters.
func (p *Partition) Settle(upTo uint64) {
	if p.retryFrom == 0 || upTo <= p.retryFrom {
		return
	}
	n := upTo - p.retryFrom
	p.retryFrom = upTo
	req := p.inq[0]
	if req.Kind == mem.WriteReq {
		return
	}
	p.L2.RecordMisses(p.localAddr(req.LineAddr), req.App, n)
	p.MSHRStalls += n
}

// PopResponse removes one completed read reply, or returns nil.
func (p *Partition) PopResponse() *mem.Request {
	if len(p.resp) == 0 {
		return nil
	}
	r := p.resp[0]
	copy(p.resp, p.resp[1:])
	p.resp = p.resp[:len(p.resp)-1]
	return r
}

// L2Reads returns the number of read-path L2 Access calls the partition
// made since it was built. Settle's credited retries are not calls.
func (p *Partition) L2Reads() uint64 { return p.l2Reads }

// PendingResponses returns the number of replies awaiting the return path.
func (p *Partition) PendingResponses() int { return len(p.resp) }

// localAddr converts a global line address to the partition-local byte
// offset implied by the chunked interleave: global chunk i lives at local
// chunk i/nparts. The L2 slice and the DRAM mapping both index with the
// local address — indexing with the global address would leave 1/nparts
// of the slice's sets usable, since the interleave bits are constant
// within a partition.
func (p *Partition) localAddr(addr uint64) uint64 {
	chunk := addr / p.interleave
	return (chunk>>p.partShift)*p.interleave + addr - chunk*p.interleave
}

// globalAddr inverts localAddr for this partition.
func (p *Partition) globalAddr(local uint64) uint64 {
	chunk := local / p.interleave
	return (chunk<<p.partShift+uint64(p.ID))*p.interleave + local - chunk*p.interleave
}

// pushDRAM appends req, whose partition-local line address is local, to
// the FR-FCFS queue. It is the queue's only append site: it decodes the
// DRAM (bank, row) once, here, so the scheduler's per-cycle scan compares
// decoded values instead of re-deriving them from every queued address.
// Consecutive rows rotate across banks so streaming accesses exercise
// bank-level parallelism.
func (p *Partition) pushDRAM(req *mem.Request, local uint64) {
	rowIdx := local / p.rowBytes
	p.dramQ = append(p.dramQ, req)
	p.dramAddr = append(p.dramAddr, dramAddr{
		local: local,
		row:   int64(rowIdx >> p.bankShift),
		bank:  int(rowIdx & p.bankMask),
	})
}

// Tick advances the partition by one memory cycle.
func (p *Partition) Tick(now uint64) {
	p.Settle(now)
	p.maybeRefresh(now)
	p.drainEvents(now)
	stalled := p.acceptOne(now)
	p.scheduleDRAM(now)

	// A stalled head retries identically every cycle until a completion
	// event or an FR-FCFS issue lifts the stall; the issue may just have
	// happened.
	stalled = stalled && (len(p.dramQ) >= p.dramQCap || p.inq[0].Kind != mem.WriteReq && p.mshr.Full())
	p.retryFrom = 0
	if stalled {
		p.retryFrom = now + 1
	}
	if len(p.inq) > 0 && !stalled || p.cfg.Timing.TREFI > 0 {
		p.nextTick = now + 1
		return
	}
	next := uint64(math.MaxUint64)
	if len(p.events) > 0 {
		next = p.events[0].at
	}
	if len(p.dramQ) > 0 {
		// scheduleDRAM issues once now+horizon reaches busFreeAt.
		next = min(next, p.busFreeAt-min(p.busFreeAt, p.horizon()))
	}
	p.nextTick = next
}

// horizon is how far, in memory cycles, scheduleDRAM may run ahead of the
// data bus.
func (p *Partition) horizon() uint64 {
	t := &p.cfg.Timing
	return uint64(t.TRP + t.TRCD + t.TCL + 2*t.BL)
}

// maybeRefresh models all-bank refresh: every TREFI cycles the banks are
// precharged and unavailable for TRFC cycles.
func (p *Partition) maybeRefresh(now uint64) {
	t := &p.cfg.Timing
	if t.TREFI <= 0 || now < p.nextRefresh {
		return
	}
	p.nextRefresh = now + uint64(t.TREFI)
	p.Refreshes++
	done := now + uint64(t.TRFC)
	for i := range p.banks {
		b := &p.banks[i]
		b.OpenRow = -1 // refresh precharges all banks
		if b.PreDone < done {
			b.PreDone = done
		}
		if b.ColReady < done {
			b.ColReady = done
		}
	}
	if p.busFreeAt < done {
		p.busFreeAt = done
	}
}

// drainEvents retires every event due at or before now.
func (p *Partition) drainEvents(now uint64) {
	for len(p.events) > 0 && p.events[0].at <= now {
		e := p.events.pop()
		switch e.kind {
		case evL2Hit:
			e.req.Kind = mem.ReadReply
			p.resp = append(p.resp, e.req)
		case evDRAMRead:
			line := e.req.LineAddr
			app := e.req.App
			ev := p.L2.Fill(e.local, app)
			if ev.Valid && ev.Dirty {
				// Write back the dirty victim; charged to its owner. The
				// queue may transiently exceed its cap here — write-backs
				// are internally generated and cannot be back-pressured.
				wb := p.pool.Get()
				wb.Kind, wb.LineAddr, wb.App = mem.WriteReq, p.globalAddr(ev.LineAddr), ev.App
				p.pushDRAM(wb, ev.LineAddr)
			}
			p.Apps[app].LatencySum += now - e.req.MemBorn
			waiters := p.mshr.Remove(line)
			for _, w := range waiters {
				w.Kind = mem.ReadReply
				p.resp = append(p.resp, w)
			}
			p.mshr.Release(waiters)
		}
	}
}

// acceptOne dequeues at most one input request per memory cycle and probes
// the L2. This matches the single tag-array port of the slice. It reports
// whether the head stalled on an L2 miss behind a full MSHR file or
// FR-FCFS queue.
func (p *Partition) acceptOne(now uint64) (stalled bool) {
	if len(p.inq) == 0 {
		return false
	}
	req := p.inq[0]
	app := req.App
	local := p.localAddr(req.LineAddr)

	if req.Kind == mem.WriteReq {
		// Store traffic is write-through from the L1s but write-back at
		// the L2: a hit marks the line dirty and is absorbed; a miss does
		// not allocate and goes straight to DRAM.
		if p.L2.WriteProbe(local) {
			p.popInq()
			p.pool.Put(req) // absorbed by the L2: the message is dead
			return false
		}
		if len(p.dramQ) >= p.dramQCap {
			return true // back-pressure: retry next cycle
		}
		p.pushDRAM(req, local)
		p.popInq()
		return false
	}

	// Read path: record the L2 access in the app's stats.
	p.l2Reads++
	if p.L2.Access(local, app) {
		p.events.push(event{at: now + p.l2LatMem, kind: evL2Hit, req: req})
		p.popInq()
		return false
	}
	// L2 miss: merge into an existing MSHR entry if one is in flight.
	if p.mshr.Append(req.LineAddr, req) {
		p.popInq()
		return false
	}
	if p.mshr.Full() || len(p.dramQ) >= p.dramQCap {
		// Structural stall; the head request retries next cycle and
		// back-pressure propagates to the interconnect.
		p.MSHRStalls++
		return true
	}
	p.mshr.Add(req.LineAddr, req)
	p.pushDRAM(req, local)
	p.popInq()
	return false
}

func (p *Partition) popInq() {
	copy(p.inq, p.inq[1:])
	p.inq[len(p.inq)-1] = nil
	p.inq = p.inq[:len(p.inq)-1]
}

// scheduleDRAM issues at most one request to the DRAM per memory cycle
// using FR-FCFS: the oldest request hitting an open row wins; if no queued
// request hits an open row, the oldest request wins.
func (p *Partition) scheduleDRAM(now uint64) {
	if len(p.dramQ) == 0 {
		return
	}
	// Allow scheduling to run ahead of the bus by enough to overlap bank
	// preparation (precharge+activate+CAS) of the next requests with the
	// current data bursts, as a pipelined controller does, while still
	// bounding how stale the FR-FCFS decision can be.
	if p.busFreeAt > now+p.horizon() {
		return
	}
	t := &p.cfg.Timing

	pick := -1
	for i := range p.dramAddr {
		if a := &p.dramAddr[i]; p.banks[a.bank].OpenRow == a.row {
			pick = i
			break
		}
	}
	rowHit := pick >= 0
	if pick < 0 {
		pick = 0
	}
	req, addr := p.dramQ[pick], p.dramAddr[pick]
	n := len(p.dramQ) - 1
	copy(p.dramQ[pick:], p.dramQ[pick+1:])
	copy(p.dramAddr[pick:], p.dramAddr[pick+1:])
	p.dramQ[n] = nil
	p.dramQ, p.dramAddr = p.dramQ[:n], p.dramAddr[:n]

	row := addr.row
	b := &p.banks[addr.bank]
	app := req.App

	var colAt uint64
	switch {
	case rowHit:
		colAt = max(now, b.ColReady, p.lastColAt+uint64(t.TCCD))
		p.Apps[app].RowHits++
	case b.OpenRow < 0:
		actAt := max(now, b.PreDone, p.lastActAt+uint64(t.TRRD))
		b.ActAt = actAt
		b.OpenRow = row
		b.ColReady = actAt + uint64(t.TRCD)
		p.lastActAt = actAt
		colAt = max(b.ColReady, p.lastColAt+uint64(t.TCCD))
		p.Apps[app].RowMisses++
	default: // row conflict: precharge, then activate
		preAt := max(now, b.ActAt+uint64(t.TRAS), b.LastColAt+uint64(t.TWR))
		actAt := max(preAt+uint64(t.TRP), p.lastActAt+uint64(t.TRRD))
		b.PreDone = preAt + uint64(t.TRP)
		b.ActAt = actAt
		b.OpenRow = row
		b.ColReady = actAt + uint64(t.TRCD)
		p.lastActAt = actAt
		colAt = max(b.ColReady, p.lastColAt+uint64(t.TCCD))
		p.Apps[app].RowMisses++
	}
	// Serialize the data burst on the shared bus.
	dataStart := max(colAt+uint64(t.TCL), p.busFreeAt)
	if over := dataStart - (colAt + uint64(t.TCL)); over > 0 {
		colAt += over // the column command waits for the bus slot
	}
	dataEnd := dataStart + uint64(t.BL)
	p.busFreeAt = dataEnd
	p.BusBusy += uint64(t.BL)
	b.LastColAt = colAt
	b.ColReady = colAt + uint64(t.TCCD)
	p.lastColAt = colAt

	p.Apps[app].BWBytes += uint64(p.cfg.L2.LineBytes)
	if req.Kind == mem.WriteReq {
		p.Apps[app].DRAMWrites++
		p.pool.Put(req) // fire and forget: the burst retires the message
		return
	}
	p.Apps[app].DRAMReads++
	p.events.push(event{at: dataEnd, kind: evDRAMRead, req: req, local: addr.local})
}

// QueueDepth returns the current FR-FCFS queue occupancy (telemetry).
func (p *Partition) QueueDepth() int { return len(p.dramQ) }

// InputDepth returns the input-queue occupancy (telemetry).
func (p *Partition) InputDepth() int { return len(p.inq) }

// OutstandingMisses returns the number of distinct lines in flight to DRAM.
func (p *Partition) OutstandingMisses() int { return p.mshr.Len() }

// String summarizes the partition state for diagnostics.
func (p *Partition) String() string {
	return fmt.Sprintf("partition %d: inq=%d dramQ=%d mshr=%d resp=%d",
		p.ID, len(p.inq), len(p.dramQ), p.mshr.Len(), len(p.resp))
}
