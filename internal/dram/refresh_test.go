package dram

import (
	"testing"

	"ebm/internal/config"
	"ebm/internal/mem"
)

func refreshCfg() *config.GPU {
	c := config.Default()
	c.Timing.TREFI = 500
	c.Timing.TRFC = 60
	return &c
}

func TestRefreshCounted(t *testing.T) {
	p := NewPartition(0, refreshCfg(), 1)
	for now := uint64(0); now < 2600; now++ {
		p.Tick(now)
	}
	// Refreshes at 0, 500, 1000, 1500, 2000, 2500.
	if got := p.Refreshes; got != 6 {
		t.Fatalf("refreshes = %d, want 6", got)
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	c := config.Default()
	p := NewPartition(0, &c, 1)
	for now := uint64(0); now < 10_000; now++ {
		p.Tick(now)
	}
	if p.Refreshes != 0 {
		t.Fatal("refresh ran with TREFI=0")
	}
}

func TestRefreshDelaysRequests(t *testing.T) {
	cfg := refreshCfg()
	p := NewPartition(0, cfg, 1)
	// Request arriving right at a refresh boundary waits out tRFC.
	p.Enqueue(&mem.Request{Kind: mem.ReadReq, LineAddr: 0, App: 0}, 500)
	var doneAt uint64
	for now := uint64(500); now < 1500 && doneAt == 0; now++ {
		p.Tick(now)
		if p.PopResponse() != nil {
			doneAt = now
		}
	}
	if doneAt == 0 {
		t.Fatal("request never completed")
	}
	minDone := uint64(500 + cfg.Timing.TRFC)
	if doneAt < minDone {
		t.Fatalf("request completed at %d, before the refresh window ended (%d)", doneAt, minDone)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	cfg := refreshCfg()
	p := NewPartition(0, cfg, 1)
	// Open a row, run past a refresh, access the same row again: it
	// must be an activate (row miss), not a row hit.
	p.Enqueue(&mem.Request{Kind: mem.ReadReq, LineAddr: 0, App: 0}, 0)
	for now := uint64(0); now < 490; now++ {
		p.Tick(now)
		p.PopResponse()
	}
	hitsBefore := p.Apps[0].RowHits
	p.Enqueue(&mem.Request{Kind: mem.ReadReq, LineAddr: 128, App: 0}, 600)
	for now := uint64(600); now < 1100; now++ {
		p.Tick(now)
		p.PopResponse()
	}
	if p.Apps[0].RowHits != hitsBefore {
		t.Fatal("row survived a refresh (refresh must precharge all banks)")
	}
}

func TestRefreshReducesBandwidth(t *testing.T) {
	// A saturating read stream attains less bandwidth with refresh on.
	run := func(trefi, trfc int) uint64 {
		c := config.Default()
		c.Timing.TREFI = trefi
		c.Timing.TRFC = trfc
		p := NewPartition(0, &c, 1)
		addr := uint64(0)
		for now := uint64(0); now < 20_000; now++ {
			for p.CanAccept() {
				p.Enqueue(&mem.Request{Kind: mem.ReadReq, LineAddr: addr, App: 0}, now)
				addr += 128
			}
			p.Tick(now)
			for p.PopResponse() != nil {
			}
		}
		return p.Apps[0].BWBytes
	}
	without := run(0, 0)
	with := run(1000, 130)
	if with >= without {
		t.Fatalf("refresh did not cost bandwidth: %d vs %d", with, without)
	}
	// The tax should be in the ballpark of tRFC/tREFI (13%), not a cliff.
	if float64(with) < 0.6*float64(without) {
		t.Fatalf("refresh tax implausibly large: %d vs %d", with, without)
	}
}
