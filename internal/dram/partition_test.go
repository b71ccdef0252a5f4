package dram

import (
	"testing"

	"ebm/internal/config"
	"ebm/internal/mem"
)

func cfg() *config.GPU {
	c := config.Default()
	return &c
}

func read(addr uint64, app int) *mem.Request {
	return &mem.Request{Kind: mem.ReadReq, LineAddr: addr, App: app}
}

func write(addr uint64, app int) *mem.Request {
	return &mem.Request{Kind: mem.WriteReq, LineAddr: addr, App: app}
}

// runUntil ticks the partition until a response appears or the budget is
// exhausted, returning the response and the cycle it appeared.
func runUntil(p *Partition, start, budget uint64) (*mem.Request, uint64) {
	for now := start; now < start+budget; now++ {
		p.Tick(now)
		if r := p.PopResponse(); r != nil {
			return r, now
		}
	}
	return nil, 0
}

func TestReadMissRoundTrip(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	r := read(0, 0)
	p.Enqueue(r, 0)
	resp, at := runUntil(p, 0, 500)
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Kind != mem.ReadReply || resp.LineAddr != 0 {
		t.Fatalf("wrong response %+v", resp)
	}
	// A cold (closed-row) access costs at least tRCD+tCL+BL memory cycles.
	min := uint64(c.Timing.TRCD + c.Timing.TCL + c.Timing.BL)
	if at < min {
		t.Fatalf("response at %d, faster than DRAM timing allows (%d)", at, min)
	}
	if p.Apps[0].DRAMReads != 1 {
		t.Fatal("DRAM read not counted")
	}
	if p.Apps[0].BWBytes != uint64(c.L2.LineBytes) {
		t.Fatalf("bytes = %d", p.Apps[0].BWBytes)
	}
}

func TestL2HitIsFasterAndCountsNoDRAM(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	p.Enqueue(read(0, 0), 0)
	_, coldAt := runUntil(p, 0, 500)
	reads, misses := p.Apps[0].DRAMReads, p.L2.Stats[0].Misses
	p.Enqueue(read(0, 0), 1000)
	resp, hitAt := runUntil(p, 1000, 500)
	if resp == nil {
		t.Fatal("no L2 hit response")
	}
	if hitLat := hitAt - 1000; hitLat >= coldAt {
		t.Fatalf("L2 hit latency %d not faster than cold %d", hitLat, coldAt)
	}
	if p.Apps[0].DRAMReads != reads {
		t.Fatal("L2 hit went to DRAM")
	}
	if p.L2.Stats[0].Misses != misses {
		t.Fatal("L2 hit recorded as miss")
	}
}

func TestMSHRMergesDuplicateLines(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	a := read(0, 0)
	b := read(0, 0)
	b.Core = 7
	p.Enqueue(a, 0)
	p.Enqueue(b, 0)
	var got []*mem.Request
	for now := uint64(0); now < 500; now++ {
		p.Tick(now)
		for r := p.PopResponse(); r != nil; r = p.PopResponse() {
			got = append(got, r)
		}
	}
	if len(got) != 2 {
		t.Fatalf("%d responses, want 2 (both waiters served)", len(got))
	}
	if p.Apps[0].DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (merged)", p.Apps[0].DRAMReads)
	}
}

func TestRowHitVsRowMissAccounting(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	// Two lines in the same DRAM row (partition-local adjacency):
	// global addresses addr and addr+128 share a 256B chunk.
	p.Enqueue(read(0, 0), 0)
	p.Enqueue(read(128, 0), 0)
	for now := uint64(0); now < 500; now++ {
		p.Tick(now)
		p.PopResponse()
	}
	if p.Apps[0].RowMisses != 1 {
		t.Fatalf("activates = %d, want 1", p.Apps[0].RowMisses)
	}
	if p.Apps[0].RowHits != 1 {
		t.Fatalf("row hits = %d, want 1", p.Apps[0].RowHits)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	// Open a row with a first access, then enqueue a conflicting-row
	// access (older) and a row-hit access (younger) together: FR-FCFS
	// must schedule the row hit first.
	p.Enqueue(read(0, 0), 0)
	for now := uint64(0); now < 200; now++ {
		p.Tick(now)
		p.PopResponse()
	}
	// Build a backlog (reads to other banks saturating the bus) so the
	// conflicting and row-hit requests coexist in the scheduler queue —
	// only then can FR-FCFS reorder them.
	now := uint64(200)
	for k := 1; k <= 8; k++ {
		// rowIdx = k -> bank k, distinct from bank 0.
		p.Enqueue(read(uint64(k*c.RowBytes*c.NumMemPartitions), 0), now)
		p.Tick(now)
		now++
	}
	// bank 0 again: + rowBytes*nparts*nbanks lands in bank 0, a different
	// row (conflict); 128 is a hit in the still-open row 0.
	conflict := uint64(c.RowBytes * c.NumMemPartitions * c.BanksPerMC)
	hit := uint64(128)
	p.Enqueue(read(conflict, 0), now) // older
	p.Enqueue(read(hit, 0), now)      // younger, row hit
	var hitAt, conflictAt uint64
	for ; now < 2000 && (hitAt == 0 || conflictAt == 0); now++ {
		p.Tick(now)
		for r := p.PopResponse(); r != nil; r = p.PopResponse() {
			switch r.LineAddr {
			case hit:
				hitAt = now
			case conflict:
				conflictAt = now
			}
		}
	}
	if hitAt == 0 || conflictAt == 0 {
		t.Fatal("requests did not complete")
	}
	if hitAt >= conflictAt {
		t.Fatalf("FR-FCFS served conflict (at %d) before the row hit (at %d)", conflictAt, hitAt)
	}
}

func TestWriteAbsorbedByL2(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	p.Enqueue(read(0, 0), 0)
	for now := uint64(0); now < 300; now++ {
		p.Tick(now)
		p.PopResponse()
	}
	base := p.Apps[0].DRAMWrites
	p.Enqueue(write(0, 0), 300) // resident: write hit, no DRAM traffic
	for now := uint64(300); now < 600; now++ {
		p.Tick(now)
	}
	if p.Apps[0].DRAMWrites != base {
		t.Fatal("write hit leaked to DRAM")
	}
}

func TestWriteMissGoesToDRAM(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	p.Enqueue(write(0, 0), 0)
	for now := uint64(0); now < 300; now++ {
		p.Tick(now)
	}
	if p.Apps[0].DRAMWrites != 1 {
		t.Fatalf("write misses to DRAM = %d, want 1 (no-allocate)", p.Apps[0].DRAMWrites)
	}
	if p.PendingResponses() != 0 {
		t.Fatal("write produced a response")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := cfg()
	c.L2 = config.CacheGeometry{SizeBytes: 2048, Ways: 2, LineBytes: 128} // 8 sets? 2048/(2*128)=8
	p := NewPartition(0, c, 1)
	// Fill a set (2 ways), dirty one line, then force an eviction.
	// Same-set stride (local): sets*line = 1024 local = 8192 global.
	stride := uint64(8 * 128 * c.NumMemPartitions)
	step := func(addr uint64, w bool) {
		if w {
			p.Enqueue(write(addr, 0), 0)
		} else {
			p.Enqueue(read(addr, 0), 0)
		}
		for i := 0; i < 400; i++ {
			p.Tick(uint64(i))
			p.PopResponse()
		}
	}
	step(0, false)
	step(0, true) // dirty it
	step(stride, false)
	base := p.Apps[0].DRAMWrites
	step(2*stride, false) // evicts dirty line 0
	if p.Apps[0].DRAMWrites != base+1 {
		t.Fatalf("dirty eviction writes = %d, want %d", p.Apps[0].DRAMWrites, base+1)
	}
}

func TestPerAppAccounting(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 2)
	p.Enqueue(read(0, 0), 0)
	p.Enqueue(read(1<<20, 1), 0)
	for now := uint64(0); now < 500; now++ {
		p.Tick(now)
		p.PopResponse()
	}
	if p.Apps[0].DRAMReads != 1 || p.Apps[1].DRAMReads != 1 {
		t.Fatalf("per-app reads wrong: %d / %d",
			p.Apps[0].DRAMReads, p.Apps[1].DRAMReads)
	}
}

func TestBackpressure(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	n := 0
	for p.CanAccept() {
		p.Enqueue(read(uint64(n)*128, 0), 0)
		n++
		if n > 1000 {
			t.Fatal("input queue never filled")
		}
	}
	if n == 0 {
		t.Fatal("queue rejected first request")
	}
	// Draining restores acceptance.
	for now := uint64(0); now < 50 && !p.CanAccept(); now++ {
		p.Tick(now)
	}
	if !p.CanAccept() {
		t.Fatal("queue did not drain")
	}
}

func TestEnqueuePastCapacityPanics(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	for p.CanAccept() {
		p.Enqueue(read(0, 0), 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-capacity Enqueue did not panic")
		}
	}()
	p.Enqueue(read(0, 0), 0)
}

func TestLocalGlobalAddressRoundTrip(t *testing.T) {
	c := cfg()
	for id := 0; id < c.NumMemPartitions; id++ {
		p := NewPartition(id, c, 1)
		for chunk := 0; chunk < 64; chunk++ {
			global := uint64(chunk*c.NumMemPartitions+id) * uint64(c.AddrInterleave)
			if got := p.globalAddr(p.localAddr(global)); got != global {
				t.Fatalf("partition %d: roundtrip %#x -> %#x", id, global, got)
			}
		}
	}
}

func TestBandwidthConservation(t *testing.T) {
	// Total BW bytes equal lines * (reads + writes to DRAM).
	c := cfg()
	p := NewPartition(0, c, 1)
	for i := 0; i < 20; i++ {
		for !p.CanAccept() {
			p.Tick(uint64(i * 100))
		}
		p.Enqueue(read(uint64(i)*100000, 0), 0)
	}
	for now := uint64(0); now < 5000; now++ {
		p.Tick(now)
		p.PopResponse()
	}
	a := &p.Apps[0]
	want := (a.DRAMReads + a.DRAMWrites) * uint64(c.L2.LineBytes)
	if a.BWBytes != want {
		t.Fatalf("BW bytes %d != lines*%d = %d", a.BWBytes, c.L2.LineBytes, want)
	}
}

func TestLatencyAccountingSane(t *testing.T) {
	c := cfg()
	p := NewPartition(0, c, 1)
	p.Enqueue(read(0, 0), 0)
	_, at := runUntil(p, 0, 500)
	lat := p.Apps[0].LatencySum
	if lat == 0 || lat > at+1 {
		t.Fatalf("latency %d implausible (completed at %d)", lat, at)
	}
}
