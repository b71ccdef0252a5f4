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
func forkCfg() *config.GPU {
	c := config.Default()
	c.L2 = config.CacheGeometry{SizeBytes: 4096, Ways: 2, LineBytes: 128}
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

// forkRun feeds a seeded random read/write stream to a partition. At the
// first cycle from forkAt (mod 2000) on at which the FR-FCFS queue is rich
// (see richQueue), or 500 cycles later at the latest, it clones the
// partition through State/SetState. Both then run in lockstep on the same
// input, and must reply in the same order at the same cycles and end with
// identical statistics and state. It reports whether the fork point was
// rich.
func forkRun(t *testing.T, seed uint64, forkAt uint16, writePct uint8) bool {
	t.Helper()
	const (
		forkWindow = 2000
		inputEnd   = forkWindow + 500 + 1500 // the stream stops here
		drainEnd   = inputEnd + 2000
	)
	c := forkCfg()
	p := NewPartition(0, c, 2)
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
	rich := false
	for now := uint64(0); now < drainEnd; now++ {
		if q == nil && now >= from && (richQueue(p, driverWrites) || now >= from+500) {
			rich = richQueue(p, driverWrites)
			q = NewPartition(0, c, 2)
			if err := q.SetState(p.State()); err != nil {
				t.Fatal(err)
			}
		}
		if now < inputEnd && rng.IntN(4) != 0 {
			v := next()
			if q != nil && q.CanAccept() != p.CanAccept() {
				t.Fatalf("cycle %d: fork accepts %v, original %v", now, q.CanAccept(), p.CanAccept())
			}
			if p.CanAccept() {
				r := new(mem.Request)
				*r = v
				if r.Kind == mem.WriteReq {
					driverWrites[r] = true
				}
				p.Enqueue(r, now)
				if q != nil {
					r2 := new(mem.Request)
					*r2 = v
					q.Enqueue(r2, now)
				}
			}
		}
		p.Tick(now)
		if q == nil {
			for p.PopResponse() != nil {
			}
			continue
		}
		q.Tick(now)
		for {
			a, b := p.PopResponse(), q.PopResponse()
			if a == nil && b == nil {
				break
			}
			if a == nil || b == nil || *a != *b {
				t.Fatalf("cycle %d: original replies %s, fork %s", now, reply(a), reply(b))
			}
		}
	}
	if q == nil {
		t.Fatal("no fork taken")
	}
	if !reflect.DeepEqual(p.Apps, q.Apps) {
		t.Fatalf("app stats differ:\n original %+v\n fork     %+v", p.Apps, q.Apps)
	}
	if p.BusBusy != q.BusBusy {
		t.Fatalf("bus busy: original %+v, fork %+v", p.BusBusy, q.BusBusy)
	}
	if !reflect.DeepEqual(p.State(), q.State()) {
		t.Fatal("drained partitions' states differ")
	}
	return rich
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
// State/SetState to the original: same replies in the same order at the
// same cycles, same per-app statistics, same bus occupancy. Derived
// scheduler state that SetState fails to rebuild from the snapshot makes
// the fork schedule differently and fails it.
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
// several banks in the FR-FCFS queue.
func TestForkSeedsForkRichQueues(t *testing.T) {
	for _, s := range forkSeeds {
		if !forkRun(t, s.seed, s.forkAt, s.writePct) {
			t.Errorf("seed %+v forked on a queue without a write-back, a row hit or two banks", s)
		}
	}
}
