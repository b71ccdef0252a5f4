package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"ebm/internal/config"
	"ebm/internal/stats"
)

// refLine is one way of lineModel's tag store: the record-per-way layout
// the cache kept before its tag store was split by field.
type refLine struct {
	Tag   uint64
	App   int8
	Valid bool
	Dirty bool
	LRU   uint64
}

// lineModel is the reference tag store for TestTagStoreMatchesLineModel:
// the record-per-way code the split store replaced, with a plain
// slice-backed victim FIFO in place of the cache's ring and map.
type lineModel struct {
	sets     []refLine
	ways     int
	setMask  uint64
	lineBits uint
	tick     uint64
	allowed  [][]bool
	stats    []stats.MissRatio
	fifo     []uint64 // evicted tags, oldest first
	fifoCap  int
	vtaHits  []uint64
}

func newLineModel(geom config.CacheGeometry, numApps, victimTags int) *lineModel {
	m := &lineModel{
		sets:    make([]refLine, geom.Sets()*geom.Ways),
		ways:    geom.Ways,
		setMask: uint64(geom.Sets() - 1),
		allowed: make([][]bool, numApps),
		stats:   make([]stats.MissRatio, numApps),
		fifoCap: victimTags,
	}
	if victimTags > 0 {
		m.vtaHits = make([]uint64, numApps)
	}
	for b := geom.LineBytes; b > 1; b >>= 1 {
		m.lineBits++
	}
	return m
}

func (m *lineModel) set(lineAddr uint64) []refLine {
	base := int((lineAddr>>m.lineBits)&m.setMask) * m.ways
	return m.sets[base : base+m.ways]
}

func (m *lineModel) lookup(lineAddr uint64) *refLine {
	set, tag := m.set(lineAddr), lineAddr>>m.lineBits
	for w := range set {
		if l := &set[w]; l.Valid && l.Tag == tag {
			return l
		}
	}
	return nil
}

func (m *lineModel) Probe(lineAddr uint64) bool {
	l := m.lookup(lineAddr)
	if l != nil {
		m.tick++
		l.LRU = m.tick
	}
	return l != nil
}

func (m *lineModel) WriteProbe(lineAddr uint64) bool {
	l := m.lookup(lineAddr)
	if l != nil {
		m.tick++
		l.LRU = m.tick
		l.Dirty = true
	}
	return l != nil
}

func (m *lineModel) Contains(lineAddr uint64) bool { return m.lookup(lineAddr) != nil }

func (m *lineModel) Access(lineAddr uint64, app int) bool {
	hit := m.Probe(lineAddr)
	m.stats[app].Record(!hit)
	if !hit && m.fifoCap > 0 && slices.Contains(m.fifo, lineAddr>>m.lineBits) {
		m.vtaHits[app]++
	}
	return hit
}

// Fill is the record-per-way victim choice: the first invalid allowed
// way, else the allowed way with the strictly lowest LRU tick.
func (m *lineModel) Fill(lineAddr uint64, app int) Eviction {
	set := m.set(lineAddr)
	tag := lineAddr >> m.lineBits
	m.tick++
	allowed := m.allowed[app]
	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for w := range set {
		l := &set[w]
		if l.Valid && l.Tag == tag {
			l.LRU = m.tick
			l.App = int8(app)
			return Eviction{}
		}
		if allowed != nil && !allowed[w] {
			continue
		}
		if !l.Valid {
			if victim == -1 || set[victim].Valid {
				victim = w
				victimLRU = 0
			}
			continue
		}
		if l.LRU < victimLRU {
			victim = w
			victimLRU = l.LRU
		}
	}
	l := &set[victim]
	var ev Eviction
	if l.Valid {
		ev = Eviction{LineAddr: l.Tag << m.lineBits, App: int(l.App), Dirty: l.Dirty, Valid: true}
		if m.fifoCap > 0 {
			if len(m.fifo) == m.fifoCap {
				m.fifo = m.fifo[1:]
			}
			m.fifo = append(m.fifo, l.Tag)
		}
	}
	*l = refLine{Tag: tag, Valid: true, App: int8(app), LRU: m.tick}
	return ev
}

// sameStore reports the first way where the split store differs from
// the model's records.
func sameStore(c *Cache, m *lineModel) error {
	for i, l := range m.sets {
		var key uint64
		if l.Valid {
			key = l.Tag + 1
		}
		if c.keys[i] != key || c.lru[i] != l.LRU || c.meta[i] != (meta{App: l.App, Dirty: l.Dirty}) {
			return fmt.Errorf("way %d: key %d LRU %d meta %+v, model %+v", i, c.keys[i], c.lru[i], c.meta[i], l)
		}
	}
	if c.tick != m.tick {
		return fmt.Errorf("tick %d, model %d", c.tick, m.tick)
	}
	return nil
}

// roundTrip restores c's gob-encoded State into a fresh cache of the
// same configuration.
func roundTrip(t *testing.T, c *Cache, masks [][]bool, victimTags int) *Cache {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.State()); err != nil {
		t.Fatal(err)
	}
	var st State
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r := New(c.Geometry(), len(c.Stats))
	for app, mask := range masks {
		if err := r.SetWayPartition(app, mask); err != nil {
			t.Fatal(err)
		}
	}
	r.EnableVictimTags(victimTags)
	if err := r.SetState(st); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTagStoreMatchesLineModel holds the split tag store (keys, LRU
// ticks and metadata in separate arrays) to the record-per-way store it
// replaced. Random Access, Probe, WriteProbe, Contains and Fill
// sequences on the L1 and L2 geometries, with and without way
// partitions and victim tags, must return the same results, evict the
// same lines, count the same stats and leave the same store, across a
// State/SetState round trip midway.
func TestTagStoreMatchesLineModel(t *testing.T) {
	const numApps, ops = 3, 30_000
	def := config.Default()
	for _, geom := range []config.CacheGeometry{def.L1, def.L2} {
		for _, partitioned := range []bool{false, true} {
			for _, victimTags := range []int{0, 24} {
				name := fmt.Sprintf("%dway/partitioned=%v/vta=%d", geom.Ways, partitioned, victimTags)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(geom.Ways), uint64(victimTags)))
					c := New(geom, numApps)
					m := newLineModel(geom, numApps, victimTags)
					masks := make([][]bool, numApps)
					if partitioned {
						// App 0 keeps every way; the others get a
						// random non-empty subset.
						for app := 1; app < numApps; app++ {
							mask := make([]bool, geom.Ways)
							mask[rng.IntN(geom.Ways)] = true
							for w := range mask {
								mask[w] = mask[w] || rng.IntN(2) == 0
							}
							masks[app] = mask
						}
					}
					for app, mask := range masks {
						if err := c.SetWayPartition(app, mask); err != nil {
							t.Fatal(err)
						}
						m.allowed[app] = mask
					}
					c.EnableVictimTags(victimTags)
					// Twice the capacity in lines, so sets fill and evict.
					lines := 2 * geom.SizeBytes / geom.LineBytes
					for op := 0; op < ops; op++ {
						if op == ops/2 {
							c = roundTrip(t, c, masks, victimTags)
						}
						addr := uint64(rng.IntN(lines)) * uint64(geom.LineBytes)
						app := rng.IntN(numApps)
						var got, want any
						switch k := rng.IntN(10); {
						case k < 3:
							got, want = c.Access(addr, app), m.Access(addr, app)
						case k < 6:
							got, want = c.Fill(addr, app), m.Fill(addr, app)
						case k < 7:
							got, want = c.Probe(addr), m.Probe(addr)
						case k < 9:
							got, want = c.WriteProbe(addr), m.WriteProbe(addr)
						default:
							got, want = c.Contains(addr), m.Contains(addr)
						}
						if got != want {
							t.Fatalf("op %d on %#x by app %d: got %+v, model %+v", op, addr, app, got, want)
						}
						if !reflect.DeepEqual(c.Stats, m.stats) || !reflect.DeepEqual(c.VTAHits, m.vtaHits) {
							t.Fatalf("op %d: stats %+v VTA hits %v, model %+v %v", op, c.Stats, c.VTAHits, m.stats, m.vtaHits)
						}
						if op%1000 == 0 || op == ops-1 {
							if err := sameStore(c, m); err != nil {
								t.Fatalf("op %d: %v", op, err)
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkTagStore measures the L2 slice's tag store on its engine
// pattern: a read Access and, on a miss, the Fill its DRAM reply makes,
// over random lines from twice the slice's capacity, two apps. ns/op is
// per Access.
func BenchmarkTagStore(b *testing.B) {
	geom := config.Default().L2
	c := New(geom, 2)
	rng := rand.New(rand.NewPCG(1, 2))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.IntN(2*geom.SizeBytes/geom.LineBytes)) * uint64(geom.LineBytes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, app := addrs[i&(len(addrs)-1)], i&1
		if !c.Access(addr, app) {
			c.Fill(addr, app)
		}
	}
}
