package dram

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"ebm/internal/config"
	"ebm/internal/mem"
)

// forkCfg is a partition small enough for a short random stream to cycle
// its L2: 4 KiB of 2-way L2 against a footprint of four banks × three rows
// × sixteen lines (24 KiB), so dirty lines are evicted and written back.
// Its 32 L2 MSHRs are half the FR-FCFS queue's 64 slots, so a stream can
// fill either first.
func forkCfg() *config.GPU {
	c := config.Default()
	c.L2 = config.CacheGeometry{SizeBytes: 4096, Ways: 2, LineBytes: 128}
	c.L2MSHRs = 32
	return &c
}

// richQueue reports whether p's FR-FCFS queue holds a dirty write-back
// (a write the driver did not enqueue), requests to at least two banks,
// and at least one request that hits an open row: the state in which a
// fork exercises every input of the scheduler's choice.
func richQueue(p *Partition, driverWrites map[*mem.Request]bool) bool {
	writeBack, hit := false, false
	banks := map[int]bool{}
	for _, r := range p.dramQ {
		if r.Kind == mem.WriteReq && !driverWrites[r] {
			writeBack = true
		}
		b, row := bankRowOf(p, r.LineAddr)
		banks[b] = true
		if p.banks[b].OpenRow == row {
			hit = true
		}
	}
	return writeBack && hit && len(banks) >= 2
}

// forkCover is what one forkRun exercised: whether the fork point's
// FR-FCFS queue was rich (see richQueue); how many memory cycles the
// original's input-queue head stalled as a read behind a full MSHR file
// and as a write behind a full FR-FCFS queue; whether the skipping arm's
// fork was taken inside a stall span, with retries still uncounted; and
// how many skipped read and write retries the skipping arm credited in
// bulk.
type forkCover struct {
	rich                    bool
	mshrStalls, dramQStalls int
	spanFork                bool
	readSkips, writeSkips   uint64
}

// arm is a partition checked against the original, and its name.
type arm struct {
	name string
	p    *Partition
}

// forkOf returns a partition that has already ticked idle (so its
// NextTick was MaxUint64) restored from src's state.
func forkOf(t *testing.T, c *config.GPU, src *Partition) *Partition {
	t.Helper()
	q := NewPartition(0, c, 2)
	q.Tick(0)
	if err := q.SetState(src.State()); err != nil {
		t.Fatal(err)
	}
	return q
}

// forkRun feeds a seeded random read/write stream to four partitions:
// the original, ticked every memory cycle; a skipping arm, fed the same
// stream from the start but ticked only from its NextTick on, as the
// simulator ticks it; and two forks. At the first cycle from forkAt (mod
// 2000) on at which the original's FR-FCFS queue is rich (see richQueue),
// or 500 cycles later at the latest, the first fork is cloned from the
// original; at the first cycle from forkAt on at which the skipping arm
// has skipped retries of a stalled head that it has not counted yet, or
// 500 cycles later at the latest, the second is cloned from the skipping
// arm. Each fork is cloned through State/SetState into a partition that
// has already ticked idle, and from then on gets the same input and is
// ticked from its NextTick on too. The skipping arm and the forks must
// reply in the original's order at the same cycles and, once settled,
// end with identical statistics and state.
func forkRun(t *testing.T, seed uint64, forkAt uint16, writePct uint8) forkCover {
	t.Helper()
	const (
		forkWindow = 2000
		inputEnd   = forkWindow + 500 + 1500 // the stream stops here
		drainEnd   = inputEnd + 2000
	)
	c := forkCfg()
	p := NewPartition(0, c, 2)
	skip := NewPartition(0, c, 2)
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	from := uint64(forkAt) % forkWindow
	driverWrites := map[*mem.Request]bool{}
	next := func() mem.Request {
		bank := rng.IntN(4) * 3 // banks 0, 3, 6, 9
		row := int64(rng.IntN(3))
		r := mem.Request{Kind: mem.ReadReq, App: rng.IntN(2), Core: rng.IntN(16),
			LineAddr: lineAt(p, bank, row, uint64(rng.IntN(16))*128)}
		if rng.IntN(100) < int(writePct%101) {
			r.Kind = mem.WriteReq
		}
		return r
	}

	var cover forkCover
	arms := []arm{{"skipping arm", skip}}
	var forked, spanForked bool
	for now := uint64(0); now < drainEnd; now++ {
		if !forked && now >= from && (richQueue(p, driverWrites) || now >= from+500) {
			forked = true
			cover.rich = richQueue(p, driverWrites)
			arms = append(arms, arm{"fork of the original", forkOf(t, c, p)})
		}
		if !spanForked && now >= from && (skip.retryFrom != 0 && skip.retryFrom < now || now >= from+500) {
			spanForked = true
			cover.spanFork = skip.retryFrom != 0 && skip.retryFrom < now
			arms = append(arms, arm{"fork of the skipping arm", forkOf(t, c, skip)})
		}
		if now < inputEnd && rng.IntN(4) != 0 {
			v := next()
			for _, a := range arms {
				if a.p.CanAccept() != p.CanAccept() {
					t.Fatalf("cycle %d: %s accepts %v, original %v", now, a.name, a.p.CanAccept(), p.CanAccept())
				}
			}
			if p.CanAccept() {
				r := new(mem.Request)
				*r = v
				if r.Kind == mem.WriteReq {
					driverWrites[r] = true
				}
				p.Enqueue(r, now)
				for _, a := range arms {
					r2 := new(mem.Request)
					*r2 = v
					a.p.Enqueue(r2, now)
				}
			}
		}
		var head *mem.Request
		if len(p.inq) > 0 {
			head = p.inq[0]
		}
		p.Tick(now)
		if head != nil && len(p.inq) > 0 && p.inq[0] == head {
			if head.Kind == mem.WriteReq {
				cover.dramQStalls++
			} else if p.mshr.Full() {
				cover.mshrStalls++
			}
		}
		for _, a := range arms {
			if now < a.p.NextTick() {
				continue
			}
			if a.p == skip {
				cover.countSkips(skip, now)
			}
			a.p.Tick(now)
		}
		for {
			want := p.PopResponse()
			for _, a := range arms {
				if got := a.p.PopResponse(); (got == nil) != (want == nil) || got != nil && *got != *want {
					t.Fatalf("cycle %d: original replies %s, %s %s", now, reply(want), a.name, reply(got))
				}
			}
			if want == nil {
				break
			}
		}
	}
	if len(arms) != 3 {
		t.Fatal("a fork was not taken")
	}
	cover.countSkips(skip, drainEnd)
	p.Settle(drainEnd)
	for _, a := range arms {
		a.p.Settle(drainEnd)
		if !reflect.DeepEqual(p.Apps, a.p.Apps) {
			t.Fatalf("app stats differ:\n original %+v\n %s %+v", p.Apps, a.name, a.p.Apps)
		}
		if p.BusBusy != a.p.BusBusy || p.MSHRStalls != a.p.MSHRStalls {
			t.Fatalf("bus busy/MSHR stalls: original %+v/%+v, %s %+v/%+v",
				p.BusBusy, p.MSHRStalls, a.name, a.p.BusBusy, a.p.MSHRStalls)
		}
		if !reflect.DeepEqual(p.State(), a.p.State()) {
			t.Fatalf("drained partitions' states differ: original vs %s", a.name)
		}
	}
	return cover
}

// countSkips adds the retries that settling a up to upTo credits.
func (c *forkCover) countSkips(a *Partition, upTo uint64) {
	if a.retryFrom == 0 || upTo <= a.retryFrom {
		return
	}
	if a.inq[0].Kind == mem.WriteReq {
		c.writeSkips += upTo - a.retryFrom
	} else {
		c.readSkips += upTo - a.retryFrom
	}
}

func reply(r *mem.Request) string {
	if r == nil {
		return "nothing"
	}
	return fmt.Sprintf("%+v", *r)
}

var forkSeeds = []struct {
	seed     uint64
	forkAt   uint16
	writePct uint8
}{
	{1, 300, 30},
	{2, 900, 50},
	{3, 1500, 20},
	{4, 60, 70},
}

// FuzzPartitionForkMatches holds a partition cloned mid-run through
// State/SetState, a partition ticked only from its NextTick on, and a
// clone of the latter taken inside a stall span, to the original ticked
// every cycle: same replies in the same order at the same cycles, same
// per-app statistics (the L2's included), same bus occupancy and MSHR
// stalls, same final state. Derived scheduler state that SetState fails
// to rebuild from the snapshot makes a fork schedule differently and
// fails it; a NextTick later than the first cycle a Tick would act at
// (past the scheduler's run-ahead horizon, past an FR-FCFS issue that
// lifts a stall, or not lowered by Enqueue) makes the skipping arm reply
// late, and a skipped retry that Settle credits wrongly, or a snapshot
// that drops one, makes its counters differ; both fail it.
func FuzzPartitionForkMatches(f *testing.F) {
	for _, s := range forkSeeds {
		f.Add(s.seed, s.forkAt, s.writePct)
	}
	f.Fuzz(func(t *testing.T, seed uint64, forkAt uint16, writePct uint8) {
		forkRun(t, seed, forkAt, writePct)
	})
}

// TestForkSeedsForkRichQueues keeps the fuzz target's seed corpus
// meaningful: every seed must fork the original with write-backs and row
// hits across several banks in the FR-FCFS queue and fork the skipping
// arm inside a stall span; the corpus must stall the input-queue head
// both as a read behind a full MSHR file and as a write behind a full
// FR-FCFS queue, and make the skipping arm credit both skipped read
// retries and skipped write retries.
func TestForkSeedsForkRichQueues(t *testing.T) {
	var mshrStalls, dramQStalls int
	var readSkips, writeSkips uint64
	for _, s := range forkSeeds {
		c := forkRun(t, s.seed, s.forkAt, s.writePct)
		if !c.rich {
			t.Errorf("seed %+v forked on a queue without a write-back, a row hit or two banks", s)
		}
		if !c.spanFork {
			t.Errorf("seed %+v forked the skipping arm outside a stall span", s)
		}
		mshrStalls += c.mshrStalls
		dramQStalls += c.dramQStalls
		readSkips += c.readSkips
		writeSkips += c.writeSkips
	}
	if mshrStalls == 0 || dramQStalls == 0 {
		t.Errorf("seeds stalled %d cycles on a full MSHR file and %d on a full FR-FCFS queue, want both > 0",
			mshrStalls, dramQStalls)
	}
	if readSkips == 0 || writeSkips == 0 {
		t.Errorf("skipping arm credited %d skipped read retries and %d skipped write retries, want both > 0",
			readSkips, writeSkips)
	}
	t.Logf("stalls: %d read, %d write; skipped retries credited: %d read, %d write",
		mshrStalls, dramQStalls, readSkips, writeSkips)
}
