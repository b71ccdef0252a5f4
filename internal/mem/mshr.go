package mem

// MSHRTable is a fixed-slot, linear-probed miss-status holding register
// file: at most Cap distinct lines may be in flight, each with an ordered
// waiter list of type W (core-local warp indices at the L1, merged read
// requests at the L2).
//
// It replaces the map-based MSHRs of the seed simulator for two reasons:
// the hardware being modeled has a fixed MSHR budget, so a fixed table is
// the more faithful structure; and the per-cycle path must not heap
// allocate, so waiter buffers are recycled through the table instead of
// being reallocated per miss. Deletion uses backward-shift compaction, so
// probe chains never accumulate tombstones and the table stays at a <= 50%
// load factor for O(1) expected operations.
//
// Like Pool, an MSHRTable serves exactly one simulated structure on one
// goroutine and is not safe for concurrent use.
type MSHRTable[W any] struct {
	// keys[i] is slot i's line plus one, or 0 when the slot is empty: a
	// probe reads 8 bytes per slot. waiters[i] is the slot's waiter list.
	// A line must not be the all-ones address, whose key would read empty;
	// line addresses are line-aligned, so none is.
	keys    []uint64
	waiters [][]W
	mask    uint64
	shift   uint
	n       int
	cap     int
	spare   [][]W // detached waiter buffers awaiting reuse
}

// NewMSHRTable builds a table admitting at most capacity distinct lines.
func NewMSHRTable[W any](capacity int) *MSHRTable[W] {
	if capacity < 1 {
		capacity = 1
	}
	size := 8
	shift := uint(61) // 64 - log2(8)
	for size < 2*capacity {
		size *= 2
		shift--
	}
	return &MSHRTable[W]{
		keys:    make([]uint64, size),
		waiters: make([][]W, size),
		mask:    uint64(size - 1),
		shift:   shift,
		cap:     capacity,
	}
}

// home is the preferred slot of a line: Fibonacci hashing spreads the
// line-aligned (low-bits-zero) addresses across the table.
func (t *MSHRTable[W]) home(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> t.shift
}

// find locates line's slot, or the empty slot that terminates its probe
// chain. The <= 50% load factor guarantees an empty slot exists.
func (t *MSHRTable[W]) find(line uint64) (idx uint64, ok bool) {
	key := line + 1
	i := t.home(line)
	for k := t.keys[i]; k != 0; k = t.keys[i] {
		if k == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
	return i, false
}

// Len returns the number of distinct lines in flight.
func (t *MSHRTable[W]) Len() int { return t.n }

// Cap returns the hardware MSHR budget.
func (t *MSHRTable[W]) Cap() int { return t.cap }

// Full reports whether every MSHR entry is allocated.
func (t *MSHRTable[W]) Full() bool { return t.n >= t.cap }

// Contains reports whether line has an entry.
func (t *MSHRTable[W]) Contains(line uint64) bool {
	_, ok := t.find(line)
	return ok
}

// Waiters returns line's waiter list (nil if absent). The slice is valid
// only until the next mutating call; allocated entries always hold at
// least one waiter, so nil unambiguously means "no entry".
func (t *MSHRTable[W]) Waiters(line uint64) []W {
	if i, ok := t.find(line); ok {
		return t.waiters[i]
	}
	return nil
}

// Append merges one more waiter into line's existing entry, reporting
// whether an entry was present.
func (t *MSHRTable[W]) Append(line uint64, w W) bool {
	i, ok := t.find(line)
	if !ok {
		return false
	}
	t.waiters[i] = append(t.waiters[i], w)
	return true
}

// Add allocates an entry for line with a single waiter. It returns false
// when the table is full or the line is already present (use Append for
// merges).
func (t *MSHRTable[W]) Add(line uint64, w W) bool {
	if t.n >= t.cap {
		return false
	}
	i, ok := t.find(line)
	if ok {
		return false
	}
	t.keys[i] = line + 1
	ws := t.waiters[i]
	if ws == nil && len(t.spare) > 0 {
		ws = t.spare[len(t.spare)-1]
		t.spare = t.spare[:len(t.spare)-1]
	}
	t.waiters[i] = append(ws[:0], w)
	t.n++
	return true
}

// Remove frees line's entry and returns its detached waiter buffer (nil if
// the line is absent). The caller consumes the waiters and then hands the
// buffer back with Release so the next Add can reuse it.
func (t *MSHRTable[W]) Remove(line uint64) []W {
	i, ok := t.find(line)
	if !ok {
		return nil
	}
	buf := t.waiters[i]
	t.keys[i], t.waiters[i] = 0, nil
	// Backward-shift compaction: walk the probe chain after the hole and
	// pull back any entry whose home slot precedes the hole, so later
	// lookups never probe across a gap.
	j := i
	for {
		j = (j + 1) & t.mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		if h := t.home(k - 1); (j-h)&t.mask >= (j-i)&t.mask {
			t.keys[i], t.waiters[i] = k, t.waiters[j]
			t.keys[j], t.waiters[j] = 0, nil
			i = j
		}
	}
	t.n--
	return buf
}

// Release returns a buffer obtained from Remove for reuse. Entries are
// zeroed so recycled buffers drop their references (no aliasing of stale
// waiters after the entry is dead).
func (t *MSHRTable[W]) Release(buf []W) {
	if cap(buf) == 0 {
		return
	}
	var zero W
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = zero
	}
	t.spare = append(t.spare, buf[:0])
}
