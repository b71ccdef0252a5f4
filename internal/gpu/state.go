package gpu

import (
	"fmt"

	"ebm/internal/cache"
	"ebm/internal/mem"
)

// CoreState is a Core's complete serializable snapshot, minus the warp
// streams (owned and restored by the simulator, which tracks the kernel
// phase each stream is bound to).
type CoreState struct {
	TLP          int
	BypassL1     bool
	PendingFills []int // per warp
	Scheds       []scheduler
	MSHRLines    []uint64
	MSHRWaiters  [][]int32
	Outq         []mem.Request
	Wheel        []uint64 // wheelSize rows of one ready mask per scheduler
	L1           cache.State
	Stats        CoreStats
	Span         quietSpan
	Room         int
}

// State returns the core's snapshot. It aliases the core's live warp,
// scheduler, wheel and cache state: encode it before the core runs again.
// The MSHR-blocked memo is derived and not captured.
func (c *Core) State() CoreState {
	st := CoreState{
		TLP:          c.tlp,
		BypassL1:     c.bypassL1,
		PendingFills: c.pendingFills,
		Scheds:       c.scheds,
		Wheel:        c.wheel,
		L1:           c.L1.State(),
		Stats:        c.Stats,
		Span:         c.span,
		Room:         c.room,
	}
	st.MSHRLines, st.MSHRWaiters = c.mshr.Entries()
	for _, r := range c.outq {
		st.Outq = append(st.Outq, *r)
	}
	return st
}

// SetState restores the core from a snapshot taken on an identically
// configured core. Out-queue requests are rebuilt as fresh values: the
// engine only reads value fields of queued requests, so copies behave
// identically to the originals.
func (c *Core) SetState(st CoreState) error {
	if len(st.PendingFills) != len(c.pendingFills) {
		return fmt.Errorf("gpu: core %d state has %d warps, core has %d", c.ID, len(st.PendingFills), len(c.pendingFills))
	}
	if len(st.Scheds) != len(c.scheds) {
		return fmt.Errorf("gpu: core %d state has %d schedulers, core has %d", c.ID, len(st.Scheds), len(c.scheds))
	}
	for i, s := range st.Scheds {
		if s.Base != c.scheds[i].Base || s.Count != c.scheds[i].Count {
			return fmt.Errorf("gpu: core %d scheduler %d state owns warps %d..%d, core's owns %d..%d",
				c.ID, i, s.Base, s.Base+s.Count-1, c.scheds[i].Base, c.scheds[i].Base+c.scheds[i].Count-1)
		}
	}
	if len(st.Wheel) != len(c.wheel) {
		return fmt.Errorf("gpu: core %d state has %d wheel masks, want %d", c.ID, len(st.Wheel), len(c.wheel))
	}
	for i, m := range st.Wheel {
		if si := i % len(c.scheds); m>>c.scheds[si].Count != 0 {
			return fmt.Errorf("gpu: core %d wheel slot %d wakes warps beyond scheduler %d's %d", c.ID, i/len(c.scheds), si, c.scheds[si].Count)
		}
	}
	c.tlp = st.TLP
	c.bypassL1 = st.BypassL1
	copy(c.pendingFills, st.PendingFills)
	copy(c.scheds, st.Scheds)
	if err := c.mshr.SetEntries(st.MSHRLines, st.MSHRWaiters); err != nil {
		return fmt.Errorf("gpu: core %d: %w", c.ID, err)
	}
	c.outq = c.outq[:0]
	for i := range st.Outq {
		r := new(mem.Request)
		*r = st.Outq[i]
		c.outq = append(c.outq, r)
	}
	c.wheelSlots = 0
	for i, m := range st.Wheel {
		c.wheel[i] = m
		if m != 0 {
			c.wheelSlots |= uint64(1) << (i / len(c.scheds))
		}
	}
	clear(c.mshrBlocked)
	if err := c.L1.SetState(st.L1); err != nil {
		return fmt.Errorf("gpu: core %d L1: %w", c.ID, err)
	}
	c.Stats = st.Stats
	c.span = st.Span
	c.room = st.Room
	return nil
}
