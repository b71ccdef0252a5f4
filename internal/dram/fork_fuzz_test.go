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
// FR-FCFS queue was rich (see richQueue), and how many memory cycles the
// input-queue head stalled as a read behind a full MSHR file and as a
// write behind a full FR-FCFS queue.
type forkCover struct {
	rich                    bool
	mshrStalls, dramQStalls int
}

// forkRun feeds a seeded random read/write stream to three partitions:
// the original, ticked every memory cycle; a skipping arm, fed the same
// stream from the start but ticked only from its NextTick on, as the
// simulator ticks it; and a fork. At the first cycle from forkAt (mod
// 2000) on at which the original's FR-FCFS queue is rich (see richQueue),
// or 500 cycles later at the latest, the fork is cloned from the original
// through State/SetState into a partition that has already ticked idle
// (so its NextTick was MaxUint64), and from then on gets the same input
// and is ticked from its NextTick on too. The skipping arm and the fork
// must reply in the original's order at the same cycles and end with
// identical statistics and state.
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

	var q *Partition
	var cover forkCover
	for now := uint64(0); now < drainEnd; now++ {
		if q == nil && now >= from && (richQueue(p, driverWrites) || now >= from+500) {
			cover.rich = richQueue(p, driverWrites)
			q = NewPartition(0, c, 2)
			q.Tick(0)
			if err := q.SetState(p.State()); err != nil {
				t.Fatal(err)
			}
		}
		arms := []*Partition{skip}
		if q != nil {
			arms = append(arms, q)
		}
		if now < inputEnd && rng.IntN(4) != 0 {
			v := next()
			for _, a := range arms {
				if a.CanAccept() != p.CanAccept() {
					t.Fatalf("cycle %d: %s accepts %v, original %v", now, armName(a, skip), a.CanAccept(), p.CanAccept())
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
					a.Enqueue(r2, now)
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
			if now >= a.NextTick() {
				a.Tick(now)
			}
		}
		for {
			want := p.PopResponse()
			for _, a := range arms {
				if got := a.PopResponse(); (got == nil) != (want == nil) || got != nil && *got != *want {
					t.Fatalf("cycle %d: original replies %s, %s %s", now, reply(want), armName(a, skip), reply(got))
				}
			}
			if want == nil {
				break
			}
		}
	}
	if q == nil {
		t.Fatal("no fork taken")
	}
	for _, a := range []*Partition{skip, q} {
		name := armName(a, skip)
		if !reflect.DeepEqual(p.Apps, a.Apps) {
			t.Fatalf("app stats differ:\n original %+v\n %s %+v", p.Apps, name, a.Apps)
		}
		if p.BusBusy != a.BusBusy || p.MSHRStalls != a.MSHRStalls {
			t.Fatalf("bus busy/MSHR stalls: original %+v/%+v, %s %+v/%+v",
				p.BusBusy, p.MSHRStalls, name, a.BusBusy, a.MSHRStalls)
		}
		if !reflect.DeepEqual(p.State(), a.State()) {
			t.Fatalf("drained partitions' states differ: original vs %s", name)
		}
	}
	return cover
}

func armName(a, skip *Partition) string {
	if a == skip {
		return "skipping arm"
	}
	return "fork"
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
// State/SetState, and a partition ticked only from its NextTick on, to
// the original ticked every cycle: same replies in the same order at the
// same cycles, same per-app statistics, same bus occupancy and MSHR
// stalls, same final state. Derived scheduler state that SetState fails
// to rebuild from the snapshot makes the fork schedule differently and
// fails it; a NextTick later than the first cycle a Tick would act at
// (past the scheduler's run-ahead horizon, or not lowered by Enqueue)
// makes the skipping arm reply late and fails it.
func FuzzPartitionForkMatches(f *testing.F) {
	for _, s := range forkSeeds {
		f.Add(s.seed, s.forkAt, s.writePct)
	}
	f.Fuzz(func(t *testing.T, seed uint64, forkAt uint16, writePct uint8) {
		forkRun(t, seed, forkAt, writePct)
	})
}

// TestForkSeedsForkRichQueues keeps the fuzz target's seed corpus
// meaningful: every seed must fork with write-backs and row hits across
// several banks in the FR-FCFS queue, and the corpus must stall the
// input-queue head both as a read behind a full MSHR file and as a write
// behind a full FR-FCFS queue.
func TestForkSeedsForkRichQueues(t *testing.T) {
	var mshrStalls, dramQStalls int
	for _, s := range forkSeeds {
		c := forkRun(t, s.seed, s.forkAt, s.writePct)
		if !c.rich {
			t.Errorf("seed %+v forked on a queue without a write-back, a row hit or two banks", s)
		}
		mshrStalls += c.mshrStalls
		dramQStalls += c.dramQStalls
	}
	if mshrStalls == 0 || dramQStalls == 0 {
		t.Errorf("seeds stalled %d cycles on a full MSHR file and %d on a full FR-FCFS queue, want both > 0",
			mshrStalls, dramQStalls)
	}
}
