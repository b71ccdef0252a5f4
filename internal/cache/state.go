package cache

import (
	"fmt"

	"ebm/internal/stats"
)

// State is a Cache's complete serializable snapshot. Geometry and way
// partitions are construction-time configuration (re-derived from the run
// spec on restore) and are not captured.
type State struct {
	Lines []line
	Tick  uint64
	Stats []stats.MissRatio

	// Victim tag array: the FIFO content, its configured capacity, and
	// the ring head. VictimCap distinguishes the fill-up phase (len <
	// cap, appends) from the ring phase (replacement at VictimHead).
	VictimTags []uint64
	VictimCap  int
	VictimHead int
	VTAHits    []uint64
}

// State returns the cache's snapshot. It aliases the cache's live tag
// store and counters: encode it before the cache runs again.
func (c *Cache) State() State {
	st := State{Lines: c.sets, Tick: c.tick, Stats: c.Stats}
	if c.victimSet != nil {
		st.VictimTags = c.victimTags
		st.VictimCap = cap(c.victimTags)
		st.VictimHead = c.victimHead
		st.VTAHits = c.VTAHits
	}
	return st
}

// SetState restores the cache from a snapshot taken on an identically
// configured cache. The victim-tag membership index is rebuilt from the
// FIFO content.
func (c *Cache) SetState(st State) error {
	if len(st.Lines) != len(c.sets) {
		return fmt.Errorf("cache: state has %d lines, cache has %d", len(st.Lines), len(c.sets))
	}
	if len(st.Stats) != len(c.Stats) {
		return fmt.Errorf("cache: state has %d app stats, cache has %d", len(st.Stats), len(c.Stats))
	}
	copy(c.sets, st.Lines)
	c.tick = st.Tick
	copy(c.Stats, st.Stats)
	if st.VictimCap > 0 {
		if len(st.VictimTags) > st.VictimCap {
			return fmt.Errorf("cache: victim FIFO state len %d exceeds cap %d", len(st.VictimTags), st.VictimCap)
		}
		c.victimTags = make([]uint64, len(st.VictimTags), st.VictimCap)
		copy(c.victimTags, st.VictimTags)
		c.victimHead = st.VictimHead
		c.victimSet = make(map[uint64]int, st.VictimCap)
		for _, tag := range c.victimTags {
			c.victimSet[tag]++
		}
		c.VTAHits = append([]uint64(nil), st.VTAHits...)
	} else if c.victimSet != nil {
		// The snapshot was taken with the detector off; mirror that.
		c.victimTags, c.victimSet, c.VTAHits = nil, nil, nil
	}
	return nil
}
