package gpu

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ebm/internal/kernel"
	"ebm/internal/mem"
)

// loadFailsMSHR is issueMem's MSHR-capacity check written out: a load aborts
// when its new lines (each distinct line that misses the L1, or every
// line while the L1 is bypassed, and has no MSHR entry) overflow the
// MSHR file.
func loadFailsMSHR(c *Core, lines []uint64) bool {
	var fresh []uint64
	for _, line := range lines {
		if (!c.bypassL1 && c.L1.Contains(line)) || c.mshr.Contains(line) || slices.Contains(fresh, line) {
			continue
		}
		fresh = append(fresh, line)
	}
	return len(fresh) > 0 && c.mshr.Len()+len(fresh) > c.mshr.Cap()
}

// checkMemo fails unless every warp in c's MSHR-blocked memo holds a
// current load that would still abort on MSHR capacity; it returns how
// many warps the memo holds.
func checkMemo(t *testing.T, c *Core, when string) int {
	t.Helper()
	n := 0
	for si, m := range c.mshrBlocked {
		for ; m != 0; m &= m - 1 {
			w := c.scheds[si].Base + bits.TrailingZeros64(m)
			st := c.streams[w].State()
			if !st.CurValid || !st.CurIsMem || st.CurWrite {
				t.Fatalf("%s: warp %d is in the MSHR-blocked memo without a current load", when, w)
			}
			if !loadFailsMSHR(c, st.CurLines) {
				t.Fatalf("%s: warp %d is in the MSHR-blocked memo, but its load %x fits (%d of %d MSHRs in use)",
					when, w, st.CurLines, c.mshr.Len(), c.mshr.Cap())
			}
			n++
		}
	}
	return n
}

// memoRig drives a core whose reads return in random order: each cycle
// every read in flight is filled with probability 1/8.
type memoRig struct {
	c        *Core
	inflight []uint64
	rng      *rand.Rand
}

func newMemoRig(t *testing.T, p kernel.Params, seed int64) *memoRig {
	cfg := machine()
	cfg.L1MSHRs = 6
	c := newCore(t, cfg, p)
	return &memoRig{c: c, rng: rand.New(rand.NewSource(seed))}
}

// fill delivers this cycle's random fills.
func (r *memoRig) fill() {
	kept := r.inflight[:0]
	for _, line := range r.inflight {
		if r.rng.Intn(8) == 0 {
			r.c.HandleFill(line)
		} else {
			kept = append(kept, line)
		}
	}
	r.inflight = kept
}

// tick ticks the core and drains its out-queue into the reads in flight.
func (r *memoRig) tick(now uint64) {
	r.c.Tick(now)
	for q := r.c.PopRequest(); q != nil; q = r.c.PopRequest() {
		if q.Kind == mem.ReadReq {
			r.inflight = append(r.inflight, q.LineAddr)
		}
	}
}

// TestMSHRBlockedMemoIsExact holds the MSHR-blocked memo to its claim:
// before and after every Tick, each warp in it would still abort on MSHR
// capacity if its load were probed in full. The core runs divergent loads
// with L1 reuse against six MSHRs, with random fills, and meets each of
// the other clear events while the memo is non-empty: a bypass flip each
// way, a SetState to another core's state, and a kernel phase switch.
func TestMSHRBlockedMemoIsExact(t *testing.T) {
	p := kernel.Params{
		Name: "MEMO", Rm: 0.6, ALUDelay: 1, CoalesceLines: 3, StepBytes: 256,
		PrivateWS: 8 << 10, PrivRandom: 0.5, SharedWS: 4 << 10, SharedFrac: 0.7,
		WriteFrac: 0.1, Seed: 11,
	}
	other := p
	other.Seed = 12
	phase := p
	phase.Name, phase.Rm, phase.CoalesceLines = "MEMO#2", 0.8, 5
	a, b := newMemoRig(t, p, 1), newMemoRig(t, other, 2)

	events := []struct {
		name string
		from uint64
		do   func()
	}{
		{"bypass on", 500, func() { a.c.SetBypassL1(true) }},
		{"bypass off", 1000, func() { a.c.SetBypassL1(false) }},
		{"SetState", 1500, func() {
			if err := a.c.SetState(b.c.State()); err != nil {
				t.Fatal(err)
			}
			for w, s := range a.c.streams {
				s.SetPhase(&other)
				s.SetState(b.c.streams[w].State())
			}
			a.inflight = append(a.inflight[:0], b.inflight...)
			b = nil
		}},
		{"phase switch", 2000, func() {
			for _, s := range a.c.streams {
				s.SetPhase(&phase)
			}
			a.c.PhaseSwitched()
		}},
	}
	skipped := uint64(0)
	for now := uint64(0); now < 2500; now++ {
		a.fill()
		if b != nil {
			b.fill()
			b.tick(now)
		}
		n := checkMemo(t, a.c, "before tick")
		if len(events) > 0 && now >= events[0].from && n > 0 {
			events[0].do()
			checkMemo(t, a.c, events[0].name)
			events = events[1:]
		}
		aborts := a.c.Stats.StallMSHR
		a.tick(now)
		if n > 0 {
			skipped += min(uint64(n), a.c.Stats.StallMSHR-aborts)
		}
		checkMemo(t, a.c, "after tick")
	}
	if len(events) > 0 {
		t.Fatalf("the memo stayed empty from cycle %d on: %q never ran", events[0].from, events[0].name)
	}
	if skipped == 0 {
		t.Fatal("no issue attempt met a warp in the memo")
	}
}

// TestWheelStateRoundTrip forks a core through State and SetState while
// wake-ups are pending in a run of wheel slots that wraps from slot 63
// to slot 0: fork and original then tick identically.
func TestWheelStateRoundTrip(t *testing.T) {
	p := computeOnly()
	p.ALUDelay = 30
	cfg := machine()
	orig := newCore(t, cfg, p)
	// Each scheduler issues at cycles 0..23 and 30..45 and sleeps the warp
	// for 30 cycles: wakes are pending in slots 46..53, 60..63 and 0..11.
	for now := uint64(0); now < 46; now++ {
		orig.Tick(now)
	}
	var pending []int
	for slot := 0; slot < wheelSize; slot++ {
		if orig.wheelSlots&(uint64(1)<<slot) != 0 {
			pending = append(pending, slot)
		}
	}
	if !slices.Contains(pending, 63) || !slices.Contains(pending, 0) || len(pending) < 8 {
		t.Fatalf("wake-ups pending in slots %v, want a run through 63 and 0", pending)
	}
	fork := newCore(t, cfg, p)
	if err := fork.SetState(orig.State()); err != nil {
		t.Fatal(err)
	}
	for w := range orig.streams {
		fork.streams[w].SetState(orig.streams[w].State())
	}
	if fork.wheelSlots != orig.wheelSlots {
		t.Fatalf("fork's slot mask %x, original's %x", fork.wheelSlots, orig.wheelSlots)
	}
	for now := uint64(46); now < 200; now++ {
		if qa, qb := orig.Tick(now), fork.Tick(now); qa != qb {
			t.Fatalf("cycle %d: quiet %v vs %v", now, qa, qb)
		}
		sameCore(t, orig, fork, false)
	}
}

// TestSetStateRejectsWheel checks that a core refuses a wheel of the
// wrong length or with a wake-up for a warp its scheduler does not own.
func TestSetStateRejectsWheel(t *testing.T) {
	cfg := machine()
	src := newCore(t, cfg, computeOnly())
	per := src.scheds[1].Count
	for name, mut := range map[string]func([]uint64) []uint64{
		"short":             func(w []uint64) []uint64 { return w[:len(w)-1] },
		"long":              func(w []uint64) []uint64 { return append(w, 0) },
		"warp beyond Count": func(w []uint64) []uint64 { w[63*len(src.scheds)+1] |= uint64(1) << per; return w },
	} {
		st := src.State()
		st.Wheel = mut(slices.Clone(st.Wheel))
		if err := newCore(t, cfg, computeOnly()).SetState(st); err == nil {
			t.Errorf("%s wheel restored", name)
		}
	}
}

// BenchmarkCoreTick times one core's Tick on the Table I machine at full
// TLP, with every read echoed back as a fill fillLatency cycles after the
// core queued it, so ns/op is nanoseconds per core cycle. compute runs
// LUD, whose dependent ALU work sleeps its warps on the wake wheel; load
// runs GUPS, whose divergent loads keep the L1 MSHRs full, so most issue
// attempts retry a load blocked on MSHR capacity.
func BenchmarkCoreTick(b *testing.B) {
	const fillLatency = 200
	for _, bc := range []struct{ name, app string }{{"compute", "LUD"}, {"load", "GUPS"}} {
		b.Run(bc.name, func(b *testing.B) {
			p, ok := kernel.ByName(bc.app)
			if !ok {
				b.Fatalf("no suite kernel %s", bc.app)
			}
			cfg := machine()
			c := newCore(b, cfg, p)
			pool := mem.NewPool()
			c.SetPool(pool)
			type fill struct{ due, line uint64 }
			var fills []fill // due cycles in order
			head := 0
			b.ReportAllocs()
			b.ResetTimer()
			for now := uint64(0); now < uint64(b.N); now++ {
				for ; head < len(fills) && fills[head].due <= now; head++ {
					c.HandleFill(fills[head].line)
				}
				if head >= 1024 {
					fills, head = fills[:copy(fills, fills[head:])], 0
				}
				c.Tick(now)
				for r := c.PopRequest(); r != nil; r = c.PopRequest() {
					if r.Kind == mem.ReadReq {
						fills = append(fills, fill{now + fillLatency, r.LineAddr})
					}
					pool.Put(r)
				}
			}
		})
	}
}
