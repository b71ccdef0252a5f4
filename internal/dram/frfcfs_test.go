package dram

import (
	"slices"
	"testing"

	"ebm/internal/config"
	"ebm/internal/mem"
)

// lineAt returns the global line address that partition p maps to DRAM
// (bank, row), off bytes into the row. The arithmetic is the address map's
// own, restated here so the tests do not lean on the code under test.
func lineAt(p *Partition, bank int, row int64, off uint64) uint64 {
	local := (uint64(row)*p.nbanks+uint64(bank))*p.rowBytes + off
	return p.globalAddr(local)
}

// bankRowOf inverts lineAt: the (bank, row) a global line address maps to.
func bankRowOf(p *Partition, line uint64) (int, int64) {
	rowIdx := p.localAddr(line) / p.rowBytes
	return int(rowIdx % p.nbanks), int64(rowIdx / p.nbanks)
}

// queued returns the FR-FCFS queue's line addresses, oldest first.
func queued(p *Partition) []uint64 {
	var out []uint64
	for _, r := range p.dramQ {
		out = append(out, r.LineAddr)
	}
	return out
}

// admit moves every input-queue request into the FR-FCFS queue through
// acceptOne, without scheduling any of them.
func admit(t *testing.T, p *Partition, now uint64) {
	t.Helper()
	for len(p.inq) > 0 {
		n := len(p.inq)
		p.acceptOne(now)
		if len(p.inq) == n {
			t.Fatal("acceptOne stalled")
		}
	}
}

// issueOrder runs the scheduler alone until the FR-FCFS queue is empty
// and returns the lines in the order it issued them.
func issueOrder(p *Partition, now uint64) []uint64 {
	var order []uint64
	for len(p.dramQ) > 0 && now < 100_000 {
		before := queued(p)
		p.scheduleDRAM(now)
		after := queued(p)
		if len(after) < len(before) {
			for i, l := range before {
				if i == len(after) || after[i] != l {
					order = append(order, l)
					break
				}
			}
		}
		now++
	}
	return order
}

// TestFRFCFSOrder pins the scheduler's choice over requests queued by each
// of the three enqueue sites: acceptOne's read miss, acceptOne's write
// miss, and drainEvents' dirty write-back.
func TestFRFCFSOrder(t *testing.T) {
	t.Run("oldest row hit wins across banks", func(t *testing.T) {
		p := NewPartition(0, cfg(), 1)
		p.banks[1].OpenRow = 3
		p.banks[2].OpenRow = 5
		miss := lineAt(p, 3, 7, 0) // closed bank, oldest
		hit2 := lineAt(p, 2, 5, 0)
		hit1 := lineAt(p, 1, 3, 128)
		for _, l := range []uint64{miss, hit2, hit1} {
			p.Enqueue(read(l, 0), 0)
		}
		admit(t, p, 0)
		if got := issueOrder(p, 0); !slices.Equal(got, []uint64{hit2, hit1, miss}) {
			t.Fatalf("issue order %#x, want %#x", got, []uint64{hit2, hit1, miss})
		}
		if h, m := p.Apps[0].RowHits, p.Apps[0].RowMisses; h != 2 || m != 1 {
			t.Fatalf("row hits/misses = %d/%d, want 2/1", h, m)
		}
	})

	t.Run("oldest wins without a hit", func(t *testing.T) {
		p := NewPartition(0, cfg(), 1)
		p.banks[7].OpenRow = 0
		conflict := lineAt(p, 7, 1, 0) // oldest: a row conflict
		closed := lineAt(p, 3, 0, 0)   // younger, to a closed bank
		other := lineAt(p, 7, 2, 0)    // conflicts again once row 1 opens
		for _, l := range []uint64{conflict, closed, other} {
			p.Enqueue(write(l, 0), 0)
		}
		admit(t, p, 0)
		if got := queued(p); !slices.Equal(got, []uint64{conflict, closed, other}) {
			t.Fatalf("write misses queued as %#x", got)
		}
		if got := issueOrder(p, 0); !slices.Equal(got, []uint64{conflict, closed, other}) {
			t.Fatalf("issue order %#x, want age order", got)
		}
		if w := p.Apps[0].DRAMWrites; w != 3 {
			t.Fatalf("DRAM writes = %d, want 3", w)
		}
	})

	t.Run("dirty write-back takes part in the hit search", func(t *testing.T) {
		c := cfg()
		c.L2 = config.CacheGeometry{SizeBytes: 2048, Ways: 2, LineBytes: 128}
		p := NewPartition(0, c, 1)
		// A, B and C share an L2 set (8 sets of 128 B lines: a 1 KiB
		// local stride). A is dirtied, B read after it, so C's fill
		// evicts A.
		stride := uint64(8 * 128)
		a, b, cl := p.globalAddr(0), p.globalAddr(stride), p.globalAddr(2*stride)
		now := uint64(0)
		settle := func(r *mem.Request) {
			p.Enqueue(r, now)
			for end := now + 400; now < end; now++ {
				p.Tick(now)
				p.PopResponse()
			}
		}
		settle(read(a, 0))
		settle(write(a, 0))
		settle(read(b, 0))
		if w := p.Apps[0].DRAMWrites; w != 0 {
			t.Fatalf("setup wrote %d lines to DRAM", w)
		}

		p.Enqueue(read(cl, 0), now)
		admit(t, p, now)
		p.scheduleDRAM(now)
		if len(p.events) != 1 {
			t.Fatalf("%d events after issuing C, want 1", len(p.events))
		}
		fillAt := p.events[0].at

		bankA, rowA := bankRowOf(p, a)
		d := lineAt(p, (bankA+5)%int(p.nbanks), 9, 128) // older, not a hit
		p.Enqueue(read(d, 0), now)
		admit(t, p, now)
		p.banks[bankA].OpenRow = rowA
		if bd, rd := bankRowOf(p, d); p.banks[bd].OpenRow == rd {
			t.Fatal("setup: D is a row hit")
		}

		p.drainEvents(fillAt)
		if got := queued(p); !slices.Equal(got, []uint64{d, a}) {
			t.Fatalf("queue after C's fill %#x, want [D, write-back of A] %#x", got, []uint64{d, a})
		}
		hits := p.Apps[0].RowHits
		p.scheduleDRAM(fillAt)
		if got := queued(p); !slices.Equal(got, []uint64{d}) {
			t.Fatalf("queue after one issue %#x, want D left", got)
		}
		if p.Apps[0].DRAMWrites != 1 || p.Apps[0].RowHits != hits+1 {
			t.Fatalf("write-back not issued as a row hit: writes %d, hits %d (was %d)",
				p.Apps[0].DRAMWrites, p.Apps[0].RowHits, hits)
		}
	})
}
