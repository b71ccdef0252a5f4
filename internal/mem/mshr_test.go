package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestMSHRAddLookupRemove(t *testing.T) {
	m := NewMSHRTable[int32](4)
	if m.Len() != 0 || m.Cap() != 4 || m.Full() {
		t.Fatalf("fresh table: len=%d cap=%d full=%v", m.Len(), m.Cap(), m.Full())
	}
	if !m.Add(128, 1) {
		t.Fatal("Add failed on empty table")
	}
	if m.Add(128, 2) {
		t.Fatal("Add succeeded for an already-present line (must use Append)")
	}
	if !m.Append(128, 2) {
		t.Fatal("Append failed for present line")
	}
	if m.Append(256, 9) {
		t.Fatal("Append succeeded for absent line")
	}
	w := m.Waiters(128)
	if len(w) != 2 || w[0] != 1 || w[1] != 2 {
		t.Fatalf("waiters = %v, want [1 2] (merge order preserved)", w)
	}
	if m.Waiters(256) != nil {
		t.Fatal("Waiters for absent line not nil")
	}
	got := m.Remove(128)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Remove returned %v, want [1 2]", got)
	}
	m.Release(got)
	if m.Len() != 0 || m.Contains(128) {
		t.Fatal("entry survived Remove")
	}
	if m.Remove(128) != nil {
		t.Fatal("Remove of absent line not nil")
	}
}

func TestMSHRFillToCapacityAndOverflow(t *testing.T) {
	const capacity = 8
	m := NewMSHRTable[int32](capacity)
	for i := 0; i < capacity; i++ {
		if !m.Add(uint64(i)*128, int32(i)) {
			t.Fatalf("Add %d rejected below capacity", i)
		}
	}
	if !m.Full() || m.Len() != capacity {
		t.Fatalf("len=%d full=%v after filling, want %d/true", m.Len(), m.Full(), capacity)
	}
	if m.Add(uint64(capacity)*128, 99) {
		t.Fatal("Add succeeded past capacity")
	}
	// Merging into existing entries must still work at capacity.
	if !m.Append(0, 77) {
		t.Fatal("Append failed at capacity")
	}
	// Freeing one slot re-admits one line.
	m.Release(m.Remove(3 * 128))
	if m.Full() {
		t.Fatal("still full after Remove")
	}
	if !m.Add(uint64(capacity)*128, 99) {
		t.Fatal("Add failed after freeing a slot")
	}
}

// TestMSHRBackshiftKeepsChainsIntact removes entries from the middle of
// colliding probe chains and checks every surviving line stays findable.
func TestMSHRBackshiftKeepsChainsIntact(t *testing.T) {
	m := NewMSHRTable[int32](16) // 32 slots
	// Lines are 128-aligned; insert many so chains form, then delete in a
	// scattered order.
	lines := make([]uint64, 16)
	for i := range lines {
		lines[i] = uint64(i) * 128 * 7 // strided to mix home slots
		if !m.Add(lines[i], int32(i)) {
			t.Fatalf("Add %d failed", i)
		}
	}
	for _, k := range []int{5, 0, 11, 8, 2, 15} {
		m.Release(m.Remove(lines[k]))
		lines[k] = ^uint64(0)
		for j, l := range lines {
			if l == ^uint64(0) {
				continue
			}
			w := m.Waiters(l)
			if len(w) != 1 || w[0] != int32(j) {
				t.Fatalf("after removals, line %#x lost: waiters=%v", l, w)
			}
		}
	}
}

// TestMSHRMatchesMapModel cross-checks the table against a map reference
// under a randomized workload.
func TestMSHRMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMSHRTable[int32](32)
	ref := map[uint64][]int32{}
	lineOf := func() uint64 { return uint64(rng.Intn(64)) * 128 }
	for op := 0; op < 20000; op++ {
		line := lineOf()
		switch rng.Intn(3) {
		case 0: // allocate or merge
			if _, ok := ref[line]; ok {
				m.Append(line, int32(op))
				ref[line] = append(ref[line], int32(op))
			} else if len(ref) < 32 {
				if !m.Add(line, int32(op)) {
					t.Fatalf("op %d: Add rejected with %d entries", op, len(ref))
				}
				ref[line] = []int32{int32(op)}
			} else if m.Add(line, int32(op)) {
				t.Fatalf("op %d: Add accepted past capacity", op)
			}
		case 1: // remove
			got := m.Remove(line)
			want := ref[line]
			delete(ref, line)
			if len(got) != len(want) {
				t.Fatalf("op %d: Remove(%#x) = %v, want %v", op, line, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: Remove(%#x) = %v, want %v", op, line, got, want)
				}
			}
			m.Release(got)
		case 2: // probe
			if m.Contains(line) != (ref[line] != nil) {
				t.Fatalf("op %d: Contains(%#x) mismatch", op, line)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: len %d != ref %d", op, m.Len(), len(ref))
		}
	}
}

// TestMSHRReleaseDropsReferences checks recycled waiter buffers are zeroed:
// a retained alias must not see stale pointers after the entry dies.
func TestMSHRReleaseDropsReferences(t *testing.T) {
	m := NewMSHRTable[*Request](4)
	r := &Request{Kind: ReadReq, LineAddr: 128}
	m.Add(128, r)
	buf := m.Remove(128)
	if len(buf) != 1 || buf[0] != r {
		t.Fatalf("Remove returned %v", buf)
	}
	alias := buf[:1]
	m.Release(buf)
	if alias[0] != nil {
		t.Fatal("Release left a live *Request in the recycled buffer")
	}
}

// TestMSHRSteadyStateAllocFree is the allocation assertion for the table:
// warmed add/append/remove cycles perform zero heap allocations.
func TestMSHRSteadyStateAllocFree(t *testing.T) {
	m := NewMSHRTable[int32](16)
	for i := 0; i < 16; i++ { // warm the waiter buffers
		m.Add(uint64(i)*128, 0)
		m.Append(uint64(i)*128, 1)
	}
	for i := 0; i < 16; i++ {
		m.Release(m.Remove(uint64(i) * 128))
	}
	if avg := testing.AllocsPerRun(1000, func() {
		m.Add(1024, 3)
		m.Append(1024, 4)
		m.Release(m.Remove(1024))
	}); avg != 0 {
		t.Fatalf("steady-state MSHR cycle allocates %v objects per op, want 0", avg)
	}
}

func BenchmarkMSHRTable(b *testing.B) {
	m := NewMSHRTable[int32](64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		line := uint64(i%64) * 128
		if !m.Add(line, int32(i)) {
			m.Release(m.Remove(line))
			m.Add(line, int32(i))
		}
	}
}

// TestMSHREntriesSurviveRestore checks that a table restored from its
// Entries snapshots identically, whatever slot layout the restore
// produced: re-inserting a probe chain that wrapped past the last slot
// lays it out differently.
func TestMSHREntriesSurviveRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMSHRTable[int32](8) // 16 slots: chains wrap often
	for op := 0; op < 5000; op++ {
		line := uint64(rng.Intn(32)) * 128
		if rng.Intn(2) == 0 {
			if !m.Append(line, int32(op)) {
				m.Add(line, int32(op))
			}
		} else {
			m.Release(m.Remove(line))
		}
		lines, waiters := m.Entries()
		r := NewMSHRTable[int32](8)
		if err := r.SetEntries(lines, waiters); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if l2, w2 := r.Entries(); !reflect.DeepEqual(l2, lines) || !reflect.DeepEqual(w2, waiters) {
			t.Fatalf("op %d: restored table snapshots as %v %v, want %v %v", op, l2, w2, lines, waiters)
		}
	}
}
