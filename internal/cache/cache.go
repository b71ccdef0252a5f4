// Package cache implements the set-associative cache model used for both
// the per-core private L1 data caches and the shared L2 slices attached to
// each memory partition.
//
// The model is a tag store with true LRU replacement, allocate-on-fill
// semantics (a miss does not install the line; the caller fetches it and
// calls Fill when the data returns, as GPGPU-Sim's sector-less mode does),
// per-application access/miss accounting in sampling windows, and optional
// per-application way partitioning used by the L2-partitioning sensitivity
// study.
package cache

import (
	"fmt"

	"ebm/internal/config"
	"ebm/internal/stats"
)

// meta is a way's owner and dirty bit. Its fields are exported so that
// engine checkpoints encode the tag store as is.
type meta struct {
	App   int8
	Dirty bool
}

// Eviction describes a line displaced by Fill.
type Eviction struct {
	LineAddr uint64
	App      int
	Dirty    bool
	Valid    bool
}

// Cache is a single set-associative cache. It is not safe for concurrent
// use; the simulator is single-goroutine by design.
type Cache struct {
	geom config.CacheGeometry

	// The tag store, split by field so that a lookup scans only keys, 8
	// bytes per way. Each holds sets*ways entries, flattened by set.
	// keys[i] is way i's tag plus one, or 0 while the way is invalid,
	// which it is only from construction to its first Fill. lru[i] is
	// the tick of the way's last touch (smaller = older; 0 while
	// invalid).
	keys []uint64
	lru  []uint64
	meta []meta

	ways     int
	setMask  uint64
	lineBits uint
	tick     uint64

	// Stats holds one lifetime access/miss counter per application.
	Stats []stats.MissRatio

	// allowedWays[app] restricts fills of that app to the enabled ways
	// (nil entry = all ways allowed). Lookups always search every way.
	allowedWays [][]bool

	// Victim tag array (CCWS-style lost-locality detection): a small
	// FIFO of recently evicted tags. A miss whose tag is found here is
	// "lost locality" — it would have hit with less thrashing. Disabled
	// until EnableVictimTags.
	victimTags []uint64
	victimHead int
	victimSet  map[uint64]int // tag -> live count in the FIFO
	// VTAHits counts lost-locality misses per application.
	VTAHits []uint64
}

// New builds a cache with the given geometry and per-app stats for numApps
// applications. It panics on an invalid geometry: construction happens at
// configuration time where a bad machine description is a programming
// error.
func New(geom config.CacheGeometry, numApps int) *Cache {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	sets := geom.Sets()
	c := &Cache{
		geom:        geom,
		keys:        make([]uint64, sets*geom.Ways),
		lru:         make([]uint64, sets*geom.Ways),
		meta:        make([]meta, sets*geom.Ways),
		ways:        geom.Ways,
		setMask:     uint64(sets - 1),
		Stats:       make([]stats.MissRatio, numApps),
		allowedWays: make([][]bool, numApps),
	}
	for b := geom.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c
}

// Geometry returns the cache geometry.
func (c *Cache) Geometry() config.CacheGeometry { return c.geom }

// EnableVictimTags turns on the lost-locality detector with a FIFO of n
// recently evicted tags (n <= capacity is typical; 0 disables).
func (c *Cache) EnableVictimTags(n int) {
	if n <= 0 {
		c.victimTags = nil
		c.victimSet = nil
		c.VTAHits = nil
		return
	}
	c.victimTags = make([]uint64, 0, n)
	c.victimHead = 0
	c.victimSet = make(map[uint64]int, n)
	c.VTAHits = make([]uint64, len(c.Stats))
}

// VictimTagsEnabled reports whether the detector is active.
func (c *Cache) VictimTagsEnabled() bool { return c.victimSet != nil }

// recordVictim pushes an evicted tag into the FIFO.
func (c *Cache) recordVictim(tag uint64) {
	if c.victimSet == nil {
		return
	}
	if len(c.victimTags) < cap(c.victimTags) {
		c.victimTags = append(c.victimTags, tag)
	} else {
		old := c.victimTags[c.victimHead]
		if n := c.victimSet[old] - 1; n <= 0 {
			delete(c.victimSet, old)
		} else {
			c.victimSet[old] = n
		}
		c.victimTags[c.victimHead] = tag
		c.victimHead = (c.victimHead + 1) % cap(c.victimTags)
	}
	c.victimSet[tag]++
}

// noteMiss checks a missing tag against the victim FIFO and charges a
// lost-locality hit to app if present.
func (c *Cache) noteMiss(tag uint64, app int) {
	if c.victimSet == nil {
		return
	}
	if c.victimSet[tag] > 0 && app < len(c.VTAHits) {
		c.VTAHits[app]++
	}
}

// SetWayPartition restricts app's fills to the ways enabled in mask
// (len(mask) must equal the associativity). Passing nil removes the
// restriction.
func (c *Cache) SetWayPartition(app int, mask []bool) error {
	if app < 0 || app >= len(c.allowedWays) {
		return fmt.Errorf("cache: app %d out of range", app)
	}
	if mask == nil {
		c.allowedWays[app] = nil
		return nil
	}
	if len(mask) != c.ways {
		return fmt.Errorf("cache: way mask length %d != associativity %d", len(mask), c.ways)
	}
	any := false
	for _, ok := range mask {
		any = any || ok
	}
	if !any {
		return fmt.Errorf("cache: way mask for app %d enables no ways", app)
	}
	c.allowedWays[app] = append([]bool(nil), mask...)
	return nil
}

func (c *Cache) setIndex(lineAddr uint64) uint64 {
	return (lineAddr >> c.lineBits) & c.setMask
}

func (c *Cache) tag(lineAddr uint64) uint64 {
	return lineAddr >> c.lineBits
}

// Access looks up lineAddr on behalf of app and records the outcome in the
// app's stats. On a hit the line's recency is updated. Access never
// allocates; use Fill when the miss data returns.
func (c *Cache) Access(lineAddr uint64, app int) (hit bool) {
	hit = c.Probe(lineAddr)
	c.Stats[app].Record(!hit)
	if !hit {
		c.noteMiss(c.tag(lineAddr), app)
	}
	return hit
}

// RecordMisses records n more misses of lineAddr by app, exactly as n
// Access calls that miss would: the line must not be resident. A memory
// partition uses it to count the skipped retries of a stalled head.
func (c *Cache) RecordMisses(lineAddr uint64, app int, n uint64) {
	m := &c.Stats[app]
	m.Accesses += n
	m.Misses += n
	if c.victimSet != nil && c.victimSet[c.tag(lineAddr)] > 0 && app < len(c.VTAHits) {
		c.VTAHits[app] += n
	}
}

// find returns the tag-store index of lineAddr's way, or -1 when the line
// is not resident.
func (c *Cache) find(lineAddr uint64) int {
	key := c.tag(lineAddr) + 1
	base := int(c.setIndex(lineAddr)) * c.ways
	for w, k := range c.keys[base : base+c.ways] {
		if k == key {
			return base + w
		}
	}
	return -1
}

// Probe looks up lineAddr, updating recency on hit, without recording any
// statistics. Used for write-through lookups that should not perturb the
// miss-rate telemetry the paper's mechanism samples (it samples read/load
// miss rates).
func (c *Cache) Probe(lineAddr uint64) bool {
	i := c.find(lineAddr)
	if i < 0 {
		return false
	}
	c.tick++
	c.lru[i] = c.tick
	return true
}

// WriteProbe looks up lineAddr for a store: on a hit the line is marked
// dirty (write-back semantics) and recency is updated. Stores do not
// allocate on miss and are not recorded in the read miss-rate telemetry.
func (c *Cache) WriteProbe(lineAddr uint64) bool {
	i := c.find(lineAddr)
	if i < 0 {
		return false
	}
	c.tick++
	c.lru[i] = c.tick
	c.meta[i].Dirty = true
	return true
}

// Contains reports whether the line is resident without touching recency.
func (c *Cache) Contains(lineAddr uint64) bool { return c.find(lineAddr) >= 0 }

// Fill installs lineAddr for app, evicting the LRU line among the app's
// allowed ways if needed. Filling an already-resident line only refreshes
// its recency. It returns the displaced line, if any, so the caller can
// write back dirty victims.
func (c *Cache) Fill(lineAddr uint64, app int) Eviction {
	tag := c.tag(lineAddr)
	base := int(c.setIndex(lineAddr)) * c.ways
	keys, lru := c.keys[base:base+c.ways], c.lru[base:base+c.ways]
	c.tick++

	// The victim is the allowed way with the strictly lowest LRU tick,
	// the first of equals. An invalid way's tick is 0 and a valid way's
	// at least 1, so that is the first invalid allowed way, else the
	// least recently used one.
	allowed := c.allowedWays[app]
	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for w, k := range keys {
		if k == tag+1 {
			// Already present (e.g. two in-flight fills merged upstream
			// or a race between bypassed and cached paths).
			lru[w] = c.tick
			c.meta[base+w].App = int8(app)
			return Eviction{}
		}
		if (allowed == nil || allowed[w]) && lru[w] < victimLRU {
			victim, victimLRU = w, lru[w]
		}
	}
	if victim == -1 {
		// Unreachable: allowed masks always enable at least one way.
		panic("cache: no fill victim")
	}
	m := &c.meta[base+victim]
	var ev Eviction
	if old := keys[victim]; old != 0 {
		ev = Eviction{
			LineAddr: (old - 1) << c.lineBits,
			App:      int(m.App),
			Dirty:    m.Dirty,
			Valid:    true,
		}
		c.recordVictim(old - 1)
	}
	keys[victim] = tag + 1
	lru[victim] = c.tick
	*m = meta{App: int8(app)}
	return ev
}

// Occupancy returns the number of valid lines currently owned by each app.
func (c *Cache) Occupancy() []int {
	occ := make([]int, len(c.Stats))
	for i, k := range c.keys {
		if app := int(c.meta[i].App); k != 0 && app < len(occ) {
			occ[app]++
		}
	}
	return occ
}

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return len(c.keys) }
