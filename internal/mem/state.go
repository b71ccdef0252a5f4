package mem

import (
	"fmt"
	"slices"
)

// Entries returns the table's in-flight lines in ascending order and
// their waiter lists, with the waiter slices copied. Together with
// SetEntries it forms the MSHR half of an engine checkpoint: the physical
// slot layout is not captured because no table operation's result depends
// on it — find/Add/Append/Remove behave identically for any layout
// holding the same entry set, and waiter order within an entry (which IS
// observable through Remove) is preserved. Line order, not slot order,
// keeps the snapshot a function of the entry set: a restored table can
// lay the same entries out differently (a probe chain that wrapped past
// the last slot), and must still snapshot identically.
func (t *MSHRTable[W]) Entries() (lines []uint64, waiters [][]W) {
	for _, k := range t.keys {
		if k != 0 {
			lines = append(lines, k-1)
		}
	}
	slices.Sort(lines)
	for _, line := range lines {
		waiters = append(waiters, append([]W(nil), t.Waiters(line)...))
	}
	return lines, waiters
}

// SetEntries resets the table to exactly the given in-flight entries
// (parallel slices, as produced by Entries). Recycled spare buffers are
// dropped; buffer capacities are not observable, so a restored table
// behaves bit-identically to the captured one.
func (t *MSHRTable[W]) SetEntries(lines []uint64, waiters [][]W) error {
	if len(lines) != len(waiters) {
		return fmt.Errorf("mem: mshr state has %d lines but %d waiter lists", len(lines), len(waiters))
	}
	if len(lines) > t.cap {
		return fmt.Errorf("mem: mshr state has %d entries, capacity %d", len(lines), t.cap)
	}
	clear(t.keys)
	clear(t.waiters)
	t.n = 0
	t.spare = t.spare[:0]
	for i, line := range lines {
		ws := waiters[i]
		if len(ws) == 0 {
			return fmt.Errorf("mem: mshr entry %#x restored with no waiters", line)
		}
		if !t.Add(line, ws[0]) {
			return fmt.Errorf("mem: mshr entry %#x duplicated in state", line)
		}
		for _, w := range ws[1:] {
			t.Append(line, w)
		}
	}
	return nil
}

// PoolState is a Pool's serializable snapshot: the free-list depth and
// the telemetry counters. The recycled Request objects themselves carry
// no information (they are poisoned), so a restore rebuilds the free list
// from fresh poisoned requests of the same count.
type PoolState struct {
	FreeLen  int
	Gets     uint64
	Allocs   uint64
	Recycles uint64
}

// State returns the pool's snapshot.
func (p *Pool) State() PoolState {
	if p == nil {
		return PoolState{}
	}
	return PoolState{FreeLen: len(p.free), Gets: p.gets, Allocs: p.allocs, Recycles: p.recycles}
}

// SetState restores the pool from a snapshot.
func (p *Pool) SetState(st PoolState) {
	if p == nil {
		return
	}
	p.gets, p.allocs, p.recycles = st.Gets, st.Allocs, st.Recycles
	p.free = p.free[:0]
	for i := 0; i < st.FreeLen; i++ {
		p.free = append(p.free, &Request{Kind: poisonKind, LineAddr: ^uint64(0)})
	}
}
