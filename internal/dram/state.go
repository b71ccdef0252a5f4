package dram

import (
	"fmt"

	"ebm/internal/cache"
	"ebm/internal/mem"
)

// EventState is one pending completion event: its fire time, kind, and
// the request by value.
type EventState struct {
	At   uint64
	Kind uint8
	Req  mem.Request
}

// PartitionState is a Partition's complete serializable snapshot.
// Requests appear by value everywhere; on restore each slot gets a fresh
// copy. A read request in flight to DRAM is aliased twice in the live
// partition (MSHR waiter and dramQ/event entry) — duplicating it is safe
// because the completion path reads only value fields of the event's
// request and delivers the MSHR waiters, so the duplicated event object
// is simply dropped afterwards, exactly like the original would have been
// had it not also been the waiter.
type PartitionState struct {
	L2          cache.State
	Inq         []mem.Request
	MSHRLines   []uint64
	MSHRWaiters [][]mem.Request
	DramQ       []mem.Request
	Banks       []bank
	BusFreeAt   uint64
	LastActAt   uint64
	LastColAt   uint64
	Events      []EventState // raw heap-array order
	Resp        []mem.Request
	Apps        []Stats
	Refreshes   uint64
	NextRefresh uint64
	MSHRStalls  uint64
	BusBusy     uint64
	// RetryFrom is the first memory cycle whose retry of the stalled
	// input-queue head is not counted yet (0 when the head is not
	// stalled), captured raw: the restored partition's first Tick
	// settles it.
	RetryFrom uint64
}

// State returns the partition's snapshot. It aliases the partition's
// live bank, counter and cache state: encode it before the partition runs
// again.
func (p *Partition) State() PartitionState {
	st := PartitionState{
		L2:          p.L2.State(),
		Banks:       p.banks,
		BusFreeAt:   p.busFreeAt,
		LastActAt:   p.lastActAt,
		LastColAt:   p.lastColAt,
		Apps:        p.Apps,
		Refreshes:   p.Refreshes,
		NextRefresh: p.nextRefresh,
		MSHRStalls:  p.MSHRStalls,
		BusBusy:     p.BusBusy,
		RetryFrom:   p.retryFrom,
	}
	for _, r := range p.inq {
		st.Inq = append(st.Inq, *r)
	}
	lines, waiters := p.mshr.Entries()
	st.MSHRLines = lines
	st.MSHRWaiters = make([][]mem.Request, len(waiters))
	for i, ws := range waiters {
		vs := make([]mem.Request, len(ws))
		for j, w := range ws {
			vs[j] = *w
		}
		st.MSHRWaiters[i] = vs
	}
	for _, r := range p.dramQ {
		st.DramQ = append(st.DramQ, *r)
	}
	for _, e := range p.events {
		st.Events = append(st.Events, EventState{At: e.at, Kind: uint8(e.kind), Req: *e.req})
	}
	for _, r := range p.resp {
		st.Resp = append(st.Resp, *r)
	}
	return st
}

// SetState restores the partition from a snapshot taken on an identically
// configured partition. The event heap array is restored verbatim: it was
// captured from a valid heap, and the sift functions are deterministic
// over the array order. The decoded addresses beside the FR-FCFS queue
// and in each event are derived state, recomputed here from the requests,
// so the snapshot never carries them; NextTick restarts at 0, so the
// restored partition ticks at once, settles the retries the snapshot left
// uncounted and recomputes it.
func (p *Partition) SetState(st PartitionState) error {
	if len(st.Banks) != len(p.banks) {
		return fmt.Errorf("dram: partition %d state has %d banks, partition has %d", p.ID, len(st.Banks), len(p.banks))
	}
	if len(st.Apps) != len(p.Apps) {
		return fmt.Errorf("dram: partition %d state has %d apps, partition has %d", p.ID, len(st.Apps), len(p.Apps))
	}
	if st.RetryFrom != 0 && len(st.Inq) == 0 {
		return fmt.Errorf("dram: partition %d state has a stalled head's retries but no input queue", p.ID)
	}
	if err := p.L2.SetState(st.L2); err != nil {
		return fmt.Errorf("dram: partition %d L2: %w", p.ID, err)
	}
	clone := func(v mem.Request) *mem.Request {
		r := new(mem.Request)
		*r = v
		return r
	}
	p.inq = p.inq[:0]
	for _, v := range st.Inq {
		p.inq = append(p.inq, clone(v))
	}
	waiters := make([][]*mem.Request, len(st.MSHRWaiters))
	for i, vs := range st.MSHRWaiters {
		ws := make([]*mem.Request, len(vs))
		for j := range vs {
			ws[j] = clone(vs[j])
		}
		waiters[i] = ws
	}
	if err := p.mshr.SetEntries(st.MSHRLines, waiters); err != nil {
		return fmt.Errorf("dram: partition %d: %w", p.ID, err)
	}
	p.dramQ, p.dramAddr = p.dramQ[:0], p.dramAddr[:0]
	for _, v := range st.DramQ {
		p.pushDRAM(clone(v), p.localAddr(v.LineAddr))
	}
	copy(p.banks, st.Banks)
	p.busFreeAt = st.BusFreeAt
	p.lastActAt = st.LastActAt
	p.lastColAt = st.LastColAt
	p.events = p.events[:0]
	for _, e := range st.Events {
		p.events = append(p.events, event{at: e.At, kind: eventKind(e.Kind), req: clone(e.Req),
			local: p.localAddr(e.Req.LineAddr)})
	}
	p.resp = p.resp[:0]
	for _, v := range st.Resp {
		p.resp = append(p.resp, clone(v))
	}
	copy(p.Apps, st.Apps)
	p.Refreshes = st.Refreshes
	p.nextRefresh = st.NextRefresh
	p.MSHRStalls = st.MSHRStalls
	p.BusBusy = st.BusBusy
	p.retryFrom = st.RetryFrom
	p.nextTick = 0
	return nil
}
