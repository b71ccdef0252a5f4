package cache

import (
	"testing"

	"ebm/internal/config"
)

func TestVictimTagsDetectLostLocality(t *testing.T) {
	// 1-set, 4-way cache with a 5-line circular scan: every miss evicts a
	// line that will be referenced again soon — all steady-state misses
	// are lost locality.
	geom := config.CacheGeometry{SizeBytes: 512, Ways: 4, LineBytes: 128}
	c := New(geom, 1)
	c.EnableVictimTags(8)
	if !c.VictimTagsEnabled() {
		t.Fatal("detector not enabled")
	}
	lines := []uint64{0, 128, 256, 384, 512}
	for pass := 0; pass < 3; pass++ {
		for _, a := range lines {
			if !c.Access(a, 0) {
				c.Fill(a, 0)
			}
		}
	}
	missBefore := c.Stats[0].Misses
	vtaBefore := c.VTAHits[0]
	for _, a := range lines {
		if !c.Access(a, 0) {
			c.Fill(a, 0)
		}
	}
	misses := c.Stats[0].Misses - missBefore
	vta := c.VTAHits[0] - vtaBefore
	if misses == 0 {
		t.Fatal("expected thrashing misses")
	}
	if vta != misses {
		t.Fatalf("VTA hits %d != misses %d for a pure thrash pattern", vta, misses)
	}
}

func TestVictimTagsColdMissesNotCharged(t *testing.T) {
	geom := config.CacheGeometry{SizeBytes: 4096, Ways: 4, LineBytes: 128}
	c := New(geom, 1)
	c.EnableVictimTags(16)
	for i := uint64(0); i < 8; i++ {
		addr := i * 128
		if c.Access(addr, 0) {
			t.Fatal("unexpected hit")
		}
		c.Fill(addr, 0)
	}
	if got := c.VTAHits[0]; got != 0 {
		t.Fatalf("cold misses charged %d lost-locality hits", got)
	}
}

func TestVictimTagsFIFOBounded(t *testing.T) {
	geom := config.CacheGeometry{SizeBytes: 512, Ways: 4, LineBytes: 128}
	c := New(geom, 1)
	c.EnableVictimTags(2) // tiny FIFO: old victims age out
	// Evict lines 0..3 in order by filling 4 new lines into the full set.
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*128, 0)
	}
	for i := uint64(4); i < 8; i++ {
		c.Fill(i*128, 0) // evicts 0,1,2,3 in LRU order
	}
	// Victim FIFO holds only the last two victims (tags of 256, 384).
	c.Access(0, 0)   // aged out: no VTA hit
	c.Access(384, 0) // still in FIFO: VTA hit
	if got := c.VTAHits[0]; got != 1 {
		t.Fatalf("VTA hits = %d, want 1 (FIFO bounded at 2)", got)
	}
}

func TestVictimTagsDisable(t *testing.T) {
	geom := config.CacheGeometry{SizeBytes: 512, Ways: 4, LineBytes: 128}
	c := New(geom, 1)
	c.EnableVictimTags(4)
	c.EnableVictimTags(0)
	if c.VictimTagsEnabled() {
		t.Fatal("disable failed")
	}
	// Operations must not panic with the detector off.
	c.Access(0, 0)
	c.Fill(0, 0)
	c.Fill(512, 0)
	c.Fill(1024, 0)
}

func TestVictimTagsWindowed(t *testing.T) {
	geom := config.CacheGeometry{SizeBytes: 512, Ways: 4, LineBytes: 128}
	c := New(geom, 1)
	c.EnableVictimTags(8)
	// A window's count is the difference of the totals over it: the cold
	// first pass finds no victim tags, every later pass thrashes on them.
	var perPass []uint64
	for pass := 0; pass < 3; pass++ {
		start := c.VTAHits[0]
		for _, a := range []uint64{0, 128, 256, 384, 512} {
			if !c.Access(a, 0) {
				c.Fill(a, 0)
			}
		}
		perPass = append(perPass, c.VTAHits[0]-start)
	}
	if perPass[0] != 0 || perPass[1] == 0 || perPass[2] == 0 {
		t.Fatalf("VTA hits per pass %v, want none in the cold pass and some in each later one", perPass)
	}
}
