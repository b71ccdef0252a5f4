package sim_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ebm/internal/config"
	"ebm/internal/dram"
	"ebm/internal/mem"
	"ebm/internal/sim"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

// capture is partition 0's input stream from one memory-bound co-schedule
// (BLK_TRD under ++maxTLP on the Table I machine, 20k core cycles), with
// the machine's partition 0 as the run left it and the run's length in
// memory cycles.
type capture struct {
	cfg     config.GPU
	apps    int
	recs    []sim.EnqueueRecord
	machine *dram.Partition
	end     uint64
}

var captured = sync.OnceValues(func() (*capture, error) {
	wl := workload.MustMake("BLK", "TRD")
	opts, err := sim.FromSpec(spec.RunSpec{
		Config:       config.Default(),
		Apps:         wl.Apps,
		Scheme:       spec.MaxTLP(),
		TotalCycles:  20_000,
		WindowCycles: 2_500,
	})
	if err != nil {
		return nil, err
	}
	recs, machine, end, err := sim.CaptureEnqueues(opts, 0)
	if err != nil {
		return nil, err
	}
	return &capture{cfg: opts.Config, apps: len(opts.Apps), recs: recs, machine: machine, end: end}, nil
})

func loadCapture(tb testing.TB) *capture {
	tb.Helper()
	c, err := captured()
	if err != nil {
		tb.Fatal(err)
	}
	if len(c.recs) == 0 {
		tb.Fatal("capture recorded no requests into partition 0")
	}
	return c
}

// replay feeds the captured stream into a lone partition 0, ticking it on
// the engine's schedule (every memory cycle from its NextTick on) and
// draining its replies, and returns the partition after the last cycle,
// settled.
func (c *capture) replay() (*dram.Partition, error) {
	p := dram.NewPartition(0, &c.cfg, c.apps)
	pool := mem.NewPool()
	p.SetPool(pool)
	recs := c.recs
	for now := uint64(0); now < c.end; now++ {
		if len(recs) > 0 && recs[0].MemCycle == now {
			if !p.CanAccept() {
				return nil, fmt.Errorf("memory cycle %d: replayed partition refuses a request the machine's accepted", now)
			}
			r := pool.Get()
			*r = recs[0].Req
			p.Enqueue(r, now)
			recs = recs[1:]
		}
		if now >= p.NextTick() {
			p.Tick(now)
		}
		for r := p.PopResponse(); r != nil; r = p.PopResponse() {
			pool.Put(r)
		}
	}
	if len(recs) > 0 {
		return nil, fmt.Errorf("%d requests left after the last memory cycle", len(recs))
	}
	p.Settle(c.end)
	return p, nil
}

// totals is a partition's lifetime counters, its L2's included.
func totals(p *dram.Partition) []uint64 {
	out := []uint64{p.BusBusy, p.MSHRStalls, p.Refreshes}
	for app, a := range p.Apps {
		l2 := &p.L2.Stats[app]
		out = append(out, a.BWBytes, a.RowHits, a.RowMisses,
			a.DRAMReads, a.DRAMWrites, a.LatencySum,
			l2.Accesses, l2.Misses)
	}
	return out
}

// TestPartitionReplayMatchesMachine holds the replay to the machine: a
// partition sees nothing of the machine but its input stream and its
// ticks, so replaying the captured stream must reproduce every counter of
// the machine's partition 0. Otherwise the replay benchmark would time
// some other workload than the engine's.
func TestPartitionReplayMatchesMachine(t *testing.T) {
	c := loadCapture(t)
	p, err := c.replay()
	if err != nil {
		t.Fatal(err)
	}
	c.machine.Settle(c.end)
	got, want := totals(p), totals(c.machine)
	if !slices.Equal(got, want) {
		t.Fatalf("replayed partition counters %v, machine's %v", got, want)
	}
	if p.Apps[0].RowHits == 0 || p.Apps[0].DRAMWrites+p.Apps[1].DRAMWrites == 0 {
		t.Fatalf("capture exercises no row hits or no writes: %v", got)
	}
	t.Logf("%d requests over %d memory cycles", len(c.recs), c.end)
}

// BenchmarkPartitionReplay times the DRAM layer alone: one op replays the
// captured partition-0 stream into a fresh partition. The parallel form
// runs one replay per goroutine, so `-cpu 1,N` shows whether the per-op
// cost holds when every CPU replays at once.
func BenchmarkPartitionReplay(b *testing.B) {
	c := loadCapture(b)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.replay(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := c.replay(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
