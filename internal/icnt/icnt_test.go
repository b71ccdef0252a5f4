package icnt

import (
	"math"
	"testing"
	"testing/quick"

	"ebm/internal/mem"
)

func req(kind mem.Kind, addr uint64) *mem.Request {
	return &mem.Request{Kind: kind, LineAddr: addr}
}

func TestZeroLoadLatency(t *testing.T) {
	n := New(1, 4, 8, 64, 128)
	r := req(mem.ReadReq, 0)
	n.Push(0, 2, r, 100)
	if got := n.Pop(2, 107); got != nil {
		t.Fatal("delivered before latency elapsed")
	}
	if got := n.Pop(2, 108); got != r {
		t.Fatal("not delivered at latency")
	}
	if n.Pending(2) != 0 || n.NextReady() != math.MaxUint64 {
		t.Fatalf("after drain: %d pending, NextReady %d", n.Pending(2), n.NextReady())
	}
}

func TestFlitOccupancy(t *testing.T) {
	// Read request: 1 flit. Reply/write: 1 header + ceil(128/64)=2 data.
	r := req(mem.ReadReq, 0)
	if f := r.Flits(64, 128); f != 1 {
		t.Fatalf("read flits = %d, want 1", f)
	}
	w := req(mem.WriteReq, 0)
	if f := w.Flits(64, 128); f != 3 {
		t.Fatalf("write flits = %d, want 3", f)
	}
	rep := req(mem.ReadReply, 0)
	if f := rep.Flits(32, 128); f != 5 {
		t.Fatalf("reply flits at 32B = %d, want 5", f)
	}
}

func TestOutputPortSerialization(t *testing.T) {
	n := New(2, 1, 8, 64, 128)
	// Two 3-flit messages to the same port pushed in the same cycle:
	// the second is delayed by the first's occupancy.
	a := req(mem.ReadReply, 0)
	b := req(mem.ReadReply, 128)
	n.Push(0, 0, a, 0)
	n.Push(1, 0, b, 0)
	// a: arrive 8, occupies 8-10, ready at 10. b: starts 11, ready 13.
	if got := n.Pop(0, 9); got != nil {
		t.Fatal("a ready too early")
	}
	if got := n.Pop(0, 10); got != a {
		t.Fatal("a not ready at its serialization end")
	}
	if got := n.Pop(0, 12); got != nil {
		t.Fatal("b ready too early")
	}
	if got := n.Pop(0, 13); got != b {
		t.Fatal("b not ready after serialization")
	}
}

func TestIndependentPorts(t *testing.T) {
	n := New(2, 2, 8, 64, 128)
	a := req(mem.ReadReply, 0)
	b := req(mem.ReadReply, 128)
	n.Push(0, 0, a, 0)
	n.Push(1, 1, b, 0)
	// Different ports do not serialize against each other.
	if n.Pop(0, 10) != a || n.Pop(1, 10) != b {
		t.Fatal("independent ports interfered")
	}
}

func TestFIFOOrderPerPort(t *testing.T) {
	n := New(1, 1, 2, 64, 128)
	var pushed []*mem.Request
	for i := 0; i < 10; i++ {
		r := req(mem.ReadReq, uint64(i*128))
		pushed = append(pushed, r)
		n.Push(0, 0, r, uint64(i))
	}
	var got []*mem.Request
	for cyc := uint64(0); cyc < 100 && len(got) < 10; cyc++ {
		if r := n.Pop(0, cyc); r != nil {
			got = append(got, r)
		}
	}
	if len(got) != 10 {
		t.Fatalf("drained %d of 10", len(got))
	}
	for i := range got {
		if got[i] != pushed[i] {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestPendingAndBusy(t *testing.T) {
	n := New(2, 1, 4, 64, 128)
	n.Push(0, 0, req(mem.ReadReq, 0), 0)
	n.Push(1, 0, req(mem.ReadReq, 128), 0)
	if n.Pending(0) != 2 {
		t.Fatalf("pending = %d", n.Pending(0))
	}
	if n.State().PortFree[0] == 0 {
		t.Fatal("port busy time not tracked")
	}
}

// headsExact reports whether the network's cached per-port heads and
// NextReady match its queues, recomputed from scratch.
func headsExact(n *Network) bool {
	m := uint64(math.MaxUint64)
	for d := range n.queues {
		want := uint64(math.MaxUint64)
		if h := n.queues[d].peek(); h != nil {
			want = h.readyAt
		}
		if n.head[d] != want {
			return false
		}
		m = min(m, want)
	}
	return n.NextReady() == m
}

func TestConservationProperty(t *testing.T) {
	// Every pushed message is eventually popped exactly once, in order,
	// and NextReady stays the earliest head through every Push and Pop,
	// with nothing deliverable before it.
	f := func(dsts []uint8) bool {
		n := New(1, 4, 3, 64, 128)
		count := 0
		for i, d := range dsts {
			n.Push(0, int(d)%4, req(mem.Kind(d/4%3), uint64(i)), uint64(i))
			count++
			if !headsExact(n) {
				return false
			}
		}
		drained := 0
		for cyc := uint64(0); cyc < uint64(len(dsts))*10+100; cyc++ {
			before := n.NextReady()
			for p := 0; p < 4; p++ {
				if n.Pop(p, cyc) != nil {
					if cyc < before {
						return false
					}
					drained++
				}
				if !headsExact(n) {
					return false
				}
			}
		}
		return drained == count && n.NextReady() == math.MaxUint64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted zero destinations")
		}
	}()
	New(1, 0, 1, 64, 128)
}

// TestSourceSerialization checks the input-port side: a source that
// pushed an n-flit message cannot send again until n cycles later,
// whichever output port it targets, and the other sources are not held.
func TestSourceSerialization(t *testing.T) {
	n := New(2, 2, 4, 64, 128)
	for _, tc := range []struct {
		kind  mem.Kind
		flits uint64
	}{{mem.ReadReq, 1}, {mem.ReadReply, 3}, {mem.WriteReq, 3}} {
		now := uint64(100)
		for !n.CanSend(0, now) || !n.CanSend(1, now) {
			now++
		}
		n.Push(0, int(now)%2, req(tc.kind, now), now)
		for c := now; c < now+tc.flits; c++ {
			if n.CanSend(0, c) {
				t.Fatalf("%v: source 0 may send at %d, %d cycles after a %d-flit push",
					tc.kind, c, c-now, tc.flits)
			}
			if !n.CanSend(1, c) {
				t.Fatalf("%v: source 1 held at %d by source 0's push", tc.kind, c)
			}
		}
		if !n.CanSend(0, now+tc.flits) {
			t.Fatalf("%v: source 0 still held %d cycles after a %d-flit push", tc.kind, tc.flits, tc.flits)
		}
	}
}

func TestNextReady(t *testing.T) {
	n := New(3, 3, 4, 64, 128)
	if got := n.NextReady(); got != math.MaxUint64 {
		t.Fatalf("empty network: NextReady = %d, want MaxUint64", got)
	}
	n.Push(0, 1, req(mem.ReadReply, 0), 10) // 3 flits: ready at 16
	n.Push(1, 1, req(mem.ReadReq, 1), 10)   // behind it: ready at 17
	n.Push(2, 2, req(mem.ReadReq, 2), 11)   // ready at 15
	if got := n.NextReady(); got != 15 {
		t.Fatalf("NextReady = %d, want 15 (port 2's head)", got)
	}
	// A snapshot restored into a fresh network recomputes it, and keeps
	// each source's serialization: source 0 is busy until 13.
	fresh := New(3, 3, 4, 64, 128)
	if err := fresh.SetState(n.State()); err != nil {
		t.Fatal(err)
	}
	if got := fresh.NextReady(); got != 15 {
		t.Fatalf("restored NextReady = %d, want 15", got)
	}
	for src, free := range []uint64{13, 11, 12} {
		if fresh.CanSend(src, free-1) || !fresh.CanSend(src, free) {
			t.Fatalf("restored source %d: CanSend at %d/%d = %v/%v, want false/true",
				src, free-1, free, fresh.CanSend(src, free-1), fresh.CanSend(src, free))
		}
	}
	if n.Pop(1, 15) != nil {
		t.Fatal("port 1 delivered before its head was ready")
	}
	if n.Pop(2, 15) == nil {
		t.Fatal("port 2 head not delivered at 15")
	}
	if got := n.NextReady(); got != 16 {
		t.Fatalf("after popping the minimum: NextReady = %d, want 16", got)
	}
	n.Push(1, 0, req(mem.ReadReq, 3), 12) // new head on an empty port: 16
	n.Push(2, 2, req(mem.ReadReq, 4), 12) // new head on a drained port: 16
	if n.Pop(1, 16) == nil {
		t.Fatal("port 1 head not delivered at 16")
	}
	if got := n.NextReady(); got != 16 {
		t.Fatalf("minimum shared by three heads, one popped: NextReady = %d, want 16", got)
	}
	for _, p := range []int{0, 2} {
		if n.Pop(p, 16) == nil {
			t.Fatalf("port %d head not delivered at 16", p)
		}
	}
	if got := n.NextReady(); got != 17 {
		t.Fatalf("NextReady = %d, want 17 (port 1's second message)", got)
	}
	if n.Pop(1, 17) == nil {
		t.Fatal("port 1's second message not delivered at 17")
	}
	if got := n.NextReady(); got != math.MaxUint64 {
		t.Fatalf("drained network: NextReady = %d, want MaxUint64", got)
	}
	if err := fresh.SetState(New(3, 3, 4, 64, 128).State()); err != nil {
		t.Fatal(err)
	}
	if got := fresh.NextReady(); got != math.MaxUint64 {
		t.Fatalf("restored empty state: NextReady = %d, want MaxUint64", got)
	}
}
