package gpu

import (
	"reflect"
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/mem"
)

func machine() *config.GPU {
	c := config.Default()
	return &c
}

func computeOnly() kernel.Params {
	return kernel.Params{
		Name: "COMP", Rm: 0.0001, ALUDelay: 1, CoalesceLines: 1,
		StepBytes: 128, PrivateWS: 4096, Seed: 3,
	}
}

func memHeavy() kernel.Params {
	return kernel.Params{
		Name: "MEM", Rm: 0.9, ALUDelay: 1, CoalesceLines: 1,
		StepBytes: 128, PrivateWS: 1 << 20, Seed: 4,
	}
}

func newCore(t testing.TB, cfg *config.GPU, p kernel.Params) *Core {
	t.Helper()
	streams := make([]*kernel.WarpStream, cfg.MaxWarpsPerCore)
	for i := range streams {
		streams[i] = kernel.NewWarpStream(&p, 0, i, cfg.L1.LineBytes)
	}
	return NewCore(0, 0, cfg, streams, 1)
}

func TestComputeBoundIPCSaturatesIssueWidth(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, computeOnly())
	c.SetTLP(24)
	const cycles = 2000
	for now := uint64(0); now < cycles; now++ {
		c.Tick(now)
	}
	ipc := float64(c.Stats.InstRetired) / cycles
	if ipc < 1.9 || ipc > 2.01 {
		t.Fatalf("compute-bound IPC %v, want ~2 (two schedulers)", ipc)
	}
}

func TestTLP1ComputeIPC(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, computeOnly())
	c.SetTLP(1)
	for now := uint64(0); now < 2000; now++ {
		c.Tick(now)
	}
	// ALUDelay 1: even one warp per scheduler sustains full issue.
	ipc := float64(c.Stats.InstRetired) / 2000
	if ipc < 1.9 {
		t.Fatalf("TLP=1, ALUDelay=1 IPC %v, want ~2", ipc)
	}
}

func TestALUDelayThrottlesSingleWarp(t *testing.T) {
	cfg := machine()
	p := computeOnly()
	p.ALUDelay = 4
	c := newCore(t, cfg, p)
	c.SetTLP(1)
	for now := uint64(0); now < 2000; now++ {
		c.Tick(now)
	}
	ipc := float64(c.Stats.InstRetired) / 2000
	// One warp per scheduler issuing every 4 cycles: IPC ~ 2/4.
	if ipc < 0.45 || ipc > 0.55 {
		t.Fatalf("dependent-chain IPC %v, want ~0.5", ipc)
	}
	// With enough warps the latency is hidden again.
	c2 := newCore(t, cfg, p)
	c2.SetTLP(8)
	for now := uint64(0); now < 2000; now++ {
		c2.Tick(now)
	}
	if ipc2 := float64(c2.Stats.InstRetired) / 2000; ipc2 < 1.9 {
		t.Fatalf("TLP=8 did not hide ALU latency: IPC %v", ipc2)
	}
}

func TestMemoryInstructionsProduceRequests(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, memHeavy())
	c.SetTLP(4)
	got := 0
	for now := uint64(0); now < 500; now++ {
		c.Tick(now)
		for c.PendingRequests() > 0 {
			r := c.PopRequest()
			if r.Kind != mem.ReadReq && r.Kind != mem.WriteReq {
				t.Fatalf("unexpected kind %v", r.Kind)
			}
			if r.Core != 0 || r.App != 0 {
				t.Fatalf("bad routing fields %+v", r)
			}
			got++
		}
	}
	if got == 0 {
		t.Fatal("no memory requests produced")
	}
	if c.Stats.MemInsts == 0 {
		t.Fatal("memory instructions not counted")
	}
}

func TestWarpsBlockUntilFill(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, memHeavy())
	c.SetTLP(1) // two warps total (one per scheduler)
	var outstanding []uint64
	for now := uint64(0); now < 300; now++ {
		c.Tick(now)
		for c.PendingRequests() > 0 {
			r := c.PopRequest()
			if r.Kind == mem.ReadReq {
				outstanding = append(outstanding, r.LineAddr)
			}
		}
	}
	// With 2 warps and 1 read each in flight, the core wedges at <= 2
	// outstanding reads (plus a few write fire-and-forgets already
	// drained above).
	if len(outstanding) > 4 {
		t.Fatalf("%d reads without any fill; warps are not blocking", len(outstanding))
	}
	before := c.Stats.InstRetired
	for now := uint64(300); now < 400; now++ {
		c.Tick(now)
	}
	if c.Stats.InstRetired != before {
		t.Fatal("blocked warps kept retiring")
	}
	// Deliver the fills: the warps wake and make progress.
	for _, a := range outstanding {
		c.HandleFill(a)
	}
	for now := uint64(400); now < 600; now++ {
		c.Tick(now)
		for c.PendingRequests() > 0 {
			c.PopRequest()
		}
	}
	if c.Stats.InstRetired <= before {
		t.Fatal("fills did not wake the warps")
	}
}

func TestTLPLimitBoundsConcurrentWarps(t *testing.T) {
	cfg := machine()
	p := memHeavy()
	p.WriteFrac = 0
	p.PrivRandom = 1 // distinct addresses per warp
	c := newCore(t, cfg, p)
	c.SetTLP(2) // 2 active warps per scheduler -> at most 4 blocked readers
	reads := 0
	for now := uint64(0); now < 1000; now++ {
		c.Tick(now)
		for c.PendingRequests() > 0 {
			if c.PopRequest().Kind == mem.ReadReq {
				reads++
			}
		}
	}
	if reads > 4 {
		t.Fatalf("TLP=2 allowed %d concurrent readers, want <= 4", reads)
	}
	if reads != 4 {
		t.Fatalf("active warps did not all issue: %d", reads)
	}
}

func TestSetTLPClamps(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, computeOnly())
	c.SetTLP(-3)
	if c.TLP() != 1 {
		t.Fatalf("TLP clamped to %d, want 1", c.TLP())
	}
	c.SetTLP(999)
	if c.TLP() != cfg.MaxTLPPerScheduler() {
		t.Fatalf("TLP clamped to %d, want %d", c.TLP(), cfg.MaxTLPPerScheduler())
	}
}

func TestL1HitsDontGenerateTraffic(t *testing.T) {
	cfg := machine()
	p := kernel.Params{ // tiny resident working set, pure reads
		Name: "FIT", Rm: 0.5, ALUDelay: 1, CoalesceLines: 1,
		StepBytes: 128, PrivateWS: 512, Seed: 5,
	}
	c := newCore(t, cfg, p)
	c.SetTLP(1)
	drain := func() {
		for c.PendingRequests() > 0 {
			r := c.PopRequest()
			if r.Kind == mem.ReadReq {
				c.HandleFill(r.LineAddr) // instant memory for warmup
			}
		}
	}
	for now := uint64(0); now < 3000; now++ {
		c.Tick(now)
		drain()
	}
	start := c.L1.Stats[0]
	reads := 0
	for now := uint64(3000); now < 6000; now++ {
		c.Tick(now)
		for c.PendingRequests() > 0 {
			if c.PopRequest().Kind == mem.ReadReq {
				reads++
			}
		}
	}
	if reads != 0 {
		t.Fatalf("resident working set still missed %d times", reads)
	}
	if m := c.L1.Stats[0].Misses - start.Misses; m != 0 {
		t.Fatalf("%d steady-state L1 misses, want 0", m)
	}
}

func TestBypassL1ForcesMisses(t *testing.T) {
	cfg := machine()
	p := kernel.Params{
		Name: "FIT", Rm: 0.5, ALUDelay: 1, CoalesceLines: 1,
		StepBytes: 128, PrivateWS: 512, Seed: 5,
	}
	c := newCore(t, cfg, p)
	c.SetTLP(1)
	c.SetBypassL1(true)
	if !c.BypassL1() {
		t.Fatal("bypass flag lost")
	}
	for now := uint64(0); now < 2000; now++ {
		c.Tick(now)
		for c.PendingRequests() > 0 {
			r := c.PopRequest()
			if r.Kind == mem.ReadReq {
				c.HandleFill(r.LineAddr)
			}
		}
	}
	if st := c.L1.Stats[0]; st.Misses != st.Accesses {
		t.Fatalf("bypassing L1 missed %d of %d accesses, want all", st.Misses, st.Accesses)
	}
}

func TestMSHRMergeSameLine(t *testing.T) {
	cfg := machine()
	p := kernel.Params{ // all warps hammer the same single line
		Name: "ONE", Rm: 0.9, ALUDelay: 1, CoalesceLines: 1,
		StepBytes: 128, PrivateWS: 128, SharedWS: 128, SharedFrac: 1,
		SharedSeq: true, Seed: 6,
	}
	c := newCore(t, cfg, p)
	c.SetTLP(8)
	reads := 0
	for now := uint64(0); now < 200; now++ {
		c.Tick(now)
		for c.PendingRequests() > 0 {
			if c.PopRequest().Kind == mem.ReadReq {
				reads++
			}
		}
	}
	if reads != 1 {
		t.Fatalf("%d read requests for one shared line, want 1 (MSHR merge)", reads)
	}
	if c.OutstandingMisses() != 1 {
		t.Fatalf("outstanding misses %d, want 1", c.OutstandingMisses())
	}
	c.HandleFill(kernel.AppBase(0)) // the shared region starts at the app base
	if c.OutstandingMisses() != 0 {
		t.Fatal("fill did not clear the MSHR entry")
	}
}

func TestPeekPopFIFO(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, memHeavy())
	if c.PeekRequest() != nil {
		t.Fatal("peek on an empty out-queue returned a request")
	}
	c.SetTLP(4)
	for now := uint64(0); now < 50 && c.PendingRequests() < 3; now++ {
		c.Tick(now)
	}
	if c.PendingRequests() < 3 {
		t.Fatal("not enough traffic")
	}
	want := append([]*mem.Request(nil), c.outq...)
	for i, w := range want {
		head := c.PeekRequest()
		if again := c.PeekRequest(); again != head || c.PendingRequests() != len(want)-i {
			t.Fatalf("request %d: peek removed or changed the head", i)
		}
		if head != w {
			t.Fatalf("request %d: peek returned %p, want %p", i, head, w)
		}
		if got := c.PopRequest(); got != w {
			t.Fatalf("request %d: pop returned %p, want %p (FIFO order)", i, got, w)
		}
	}
	if c.PeekRequest() != nil || c.PopRequest() != nil {
		t.Fatal("drained out-queue still yields requests")
	}
}

// stallCore drives a core until a Tick reports it quiet with at least one
// issue abort, draining the out-queue after every tick when drain is set
// (so only MSHR capacity can stall it) and never delivering fills. It
// returns the stall count and the next cycle.
func stallCore(t *testing.T, c *Core, drain bool) (stalls int, next uint64) {
	t.Helper()
	for now := uint64(0); now < 2000; now++ {
		quiet := c.Tick(now)
		if drain {
			for c.PopRequest() != nil {
			}
		}
		if quiet && c.span.Stalls > 0 {
			return c.span.Stalls, now + 1
		}
	}
	t.Fatal("core never stalled")
	return 0, 0
}

// stalledPair builds two identical cores stalled at issue on the given
// cause (MSHR capacity when drain is set, out-queue space otherwise), each
// with its quiet span open from next.
func stalledPair(t *testing.T, mshrs, tlp int, drain bool) (a, b *Core, stalls int, next uint64) {
	t.Helper()
	a, b = stallReadyCore(t, mshrs), stallReadyCore(t, mshrs)
	a.SetTLP(tlp)
	b.SetTLP(tlp)
	stalls, next = stallCore(t, a, drain)
	if s2, n2 := stallCore(t, b, drain); s2 != stalls || n2 != next {
		t.Fatalf("identical cores stalled differently: %d@%d vs %d@%d", stalls, next, s2, n2)
	}
	if mshrFull, outqFull := a.OutstandingMisses() == mshrs, !a.CanInject(1); mshrFull != drain || outqFull == drain {
		t.Fatalf("stall cause: %d of %d MSHRs in use, %d requests queued",
			a.OutstandingMisses(), mshrs, a.PendingRequests())
	}
	return a, b, stalls, next
}

// stallReadyCore builds a fresh core with mshrs L1 MSHRs whose warps load
// distinct lines, so that every load allocates an MSHR.
func stallReadyCore(t *testing.T, mshrs int) *Core {
	t.Helper()
	p := memHeavy()
	p.WriteFrac = 0
	p.PrivRandom = 1
	cfg := machine()
	cfg.L1MSHRs = mshrs
	return newCore(t, cfg, p)
}

// stallCases are the two stall causes: both exceed the resource with the
// active warps per scheduler they set.
var stallCases = []struct {
	name  string
	mshrs int
	tlp   int
	drain bool
}{
	{"mshr-capacity", 4, 8, true},
	{"outq-full", 64, 24, false},
}

// sameCore reports whether two cores hold identical state and warp
// streams, FastForward aside when ignoreFF is set.
func sameCore(t *testing.T, a, b *Core, ignoreFF bool) {
	t.Helper()
	sa, sb := a.State(), b.State()
	if ignoreFF {
		sa.Stats.FastForward, sb.Stats.FastForward = 0, 0
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("cores diverged:\n a: %+v span %+v room %d\n b: %+v span %+v room %d",
			sa.Stats, sa.Span, sa.Room, sb.Stats, sb.Span, sb.Room)
	}
	for w := range a.streams {
		if !reflect.DeepEqual(a.streams[w].State(), b.streams[w].State()) {
			t.Fatalf("warp %d stream diverged", w)
		}
	}
}

// TestSettleMatchesQuietTicks pins the quiet-span contract: on a core
// stalled at issue, n Ticks leave exactly the state of one Tick followed
// by Settle over the next n-1 cycles, the open span included; only the
// FastForward counter differs.
func TestSettleMatchesQuietTicks(t *testing.T) {
	for _, tc := range stallCases {
		t.Run(tc.name, func(t *testing.T) {
			ticked, settled, stalls, now := stalledPair(t, tc.mshrs, tc.tlp, tc.drain)
			const n = 50
			for i := uint64(0); i < n; i++ {
				if quiet := ticked.Tick(now + i); !quiet || ticked.span.Stalls != stalls {
					t.Fatalf("stalled tick %d: stalls %d quiet %v, want %d true", i, ticked.span.Stalls, quiet, stalls)
				}
			}
			settled.Tick(now)
			settled.Settle(now + n)
			if got := settled.Stats.FastForward; got != n-1 {
				t.Fatalf("FastForward %d, want %d", got, n-1)
			}
			if !settled.Quiet() || settled.span.From != now+n {
				t.Fatalf("settled span %+v, want open from %d", settled.span, now+n)
			}
			sameCore(t, ticked, settled, true)
		})
	}
}

// TestQuietSpanSurvivesFork forks a core mid-span through State and
// SetState into a fresh core: settled to the same cycle, the fork and the
// original hold identical state and Stats, FastForward included, and
// both wake unblocked by the same pop.
func TestQuietSpanSurvivesFork(t *testing.T) {
	for _, tc := range stallCases {
		t.Run(tc.name, func(t *testing.T) {
			orig, _, _, now := stalledPair(t, tc.mshrs, tc.tlp, tc.drain)
			orig.Settle(now + 7) // a span already partly credited
			fork := stallReadyCore(t, tc.mshrs)
			if err := fork.SetState(orig.State()); err != nil {
				t.Fatal(err)
			}
			for w := range orig.streams {
				fork.streams[w].SetState(orig.streams[w].State())
			}
			orig.Settle(now + 40)
			fork.Settle(now + 40)
			if !fork.Quiet() || fork.Stats.FastForward != 40 {
				t.Fatalf("fork quiet %v FastForward %d, want true 40", fork.Quiet(), fork.Stats.FastForward)
			}
			sameCore(t, orig, fork, false)
			if tc.drain {
				return // an MSHR stall: only a fill unblocks it
			}
			for !orig.Unblocked() {
				orig.PopRequest()
				if fork.PopRequest(); fork.Unblocked() != orig.Unblocked() {
					t.Fatal("fork and original disagree on the pop that unblocks them")
				}
			}
			orig.Wake(now + 41)
			fork.Wake(now + 41)
			sameCore(t, orig, fork, false)
		})
	}
}

func TestTickNotQuietWhenIssuingOrWheelBusy(t *testing.T) {
	cfg := machine()
	if quiet := newCore(t, cfg, computeOnly()).Tick(0); quiet {
		t.Fatal("a tick that issued reported quiet")
	}
	p := computeOnly()
	p.ALUDelay = 4
	c := newCore(t, cfg, p)
	c.SetTLP(1)
	c.Tick(0) // each scheduler's one warp issues, then sleeps for 4 cycles
	before := c.Stats.IssuedSlots
	quiet := c.Tick(1)
	if c.Stats.IssuedSlots != before {
		t.Fatal("a sleeping warp issued")
	}
	if quiet || c.Quiet() {
		t.Fatalf("tick with wake-ups scheduled: quiet %v, span %+v, want neither", quiet, c.span)
	}
}

func TestStatsWindows(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, computeOnly())
	for now := uint64(0); now < 100; now++ {
		c.Tick(now)
	}
	// A window's count is the difference of the totals over it.
	start := c.Stats.InstRetired
	if start == 0 {
		t.Fatal("no instructions")
	}
	for now := uint64(100); now < 200; now++ {
		c.Tick(now)
	}
	if c.Stats.InstRetired-start == 0 {
		t.Fatal("no instructions in the second window")
	}
}

func TestGTOGreedyStaysOnWarp(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, computeOnly())
	c.SetTLP(4)
	// With pure compute and ALUDelay 1 the greedy scheduler should keep
	// issuing from the same (oldest) warp; all instructions come from 2
	// warps (one per scheduler).
	for now := uint64(0); now < 1000; now++ {
		c.Tick(now)
	}
	gen := 0
	per := cfg.MaxWarpsPerCore / cfg.SchedulersPerCore
	for i, w := range c.streams {
		if w.Generated() > 0 {
			gen++
			if i != 0 && i != per {
				t.Fatalf("greedy scheduler issued from warp %d", i)
			}
		}
	}
	if gen != 2 {
		t.Fatalf("%d warps progressed, want 2 (one per scheduler)", gen)
	}
}

// TestSetStateRejectsSchedulerLayout checks that a core refuses a state
// whose schedulers own other warps than its own: the warp ranges are
// construction-time, so such a state comes from another machine.
func TestSetStateRejectsSchedulerLayout(t *testing.T) {
	cfg := machine()
	src := newCore(t, cfg, computeOnly())
	st := src.State()
	if err := newCore(t, cfg, computeOnly()).SetState(st); err != nil {
		t.Fatalf("matching state: %v", err)
	}
	st.Scheds = append([]scheduler(nil), st.Scheds...)
	st.Scheds[1].Base++
	if err := newCore(t, cfg, computeOnly()).SetState(st); err == nil {
		t.Fatal("state with a shifted scheduler warp range restored")
	}
}

// memOnly is a kernel whose every instruction is a memory access to
// lines consecutive cache lines, all stores when store is set and all
// loads otherwise.
func memOnly(lines int, store bool) kernel.Params {
	p := kernel.Params{
		Name: "MEMONLY", Rm: 1, ALUDelay: 1, CoalesceLines: lines,
		StepBytes: 128 * lines, PrivateWS: 1 << 20, Seed: 5,
	}
	if store {
		p.WriteFrac = 1
	}
	return p
}

// roomCore builds a core whose first scheduler's warps run kernel a and
// whose second's run kernel b, one active warp per scheduler, with an
// L1 of mshrs MSHRs and an out-queue left with free empty slots.
func roomCore(t *testing.T, mshrs int, a, b kernel.Params, free int) *Core {
	t.Helper()
	cfg := machine()
	cfg.L1MSHRs = mshrs
	if cfg.SchedulersPerCore != 2 {
		t.Fatalf("machine has %d schedulers, want 2", cfg.SchedulersPerCore)
	}
	per := cfg.MaxWarpsPerCore / 2
	streams := make([]*kernel.WarpStream, cfg.MaxWarpsPerCore)
	for i := range streams {
		p := &a
		if i >= per {
			p = &b
		}
		streams[i] = kernel.NewWarpStream(p, 0, i, cfg.L1.LineBytes)
	}
	c := NewCore(0, 0, cfg, streams, 1)
	c.SetTLP(1)
	for c.CanInject(free + 1) {
		c.outq = append(c.outq, &mem.Request{Kind: mem.WriteReq})
	}
	return c
}

// TestStallRoom pins the room rule behind Unblocked, which the
// simulator's out-queue wake reads: the room is the smallest out-queue
// room any of a Tick's aborts on out-queue space needs, aborts on MSHR
// capacity need none (0, never unblocked by a pop), and a Tick that
// issues reports 0.
func TestStallRoom(t *testing.T) {
	load4, load2, store3 := memOnly(4, false), memOnly(2, false), memOnly(3, true)
	for _, tc := range []struct {
		name       string
		mshrs      int
		a, b       kernel.Params
		free, idle int // free out-queue slots; a scheduler with no ready warp (-1: none)
		stalls     int
		room       int
	}{
		{"load on MSHR capacity", 2, load4, load4, 0, -1, 2, 0},
		{"load on out-queue", 64, load4, load4, 3, 1, 1, 4},
		{"store", 64, store3, store3, 2, 0, 1, 3},
		{"smaller need wins", 64, load4, load2, 1, -1, 2, 2},
		{"smaller need wins, swapped", 64, load2, load4, 1, -1, 2, 2},
		{"MSHR abort needs no room", 3, load4, load2, 1, -1, 2, 2},
		{"store and load", 64, store3, load2, 1, -1, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := roomCore(t, tc.mshrs, tc.a, tc.b, tc.free)
			if tc.idle >= 0 {
				c.scheds[tc.idle].ReadyMask = 0
			}
			quiet := c.Tick(0)
			stalls := c.span.Stalls
			if stalls != tc.stalls || !quiet {
				t.Fatalf("stalls %d quiet %v, want %d true", stalls, quiet, tc.stalls)
			}
			if got := c.room; got != tc.room {
				t.Fatalf("room %d, want %d", got, tc.room)
			}
			if tc.room == 0 {
				for c.PopRequest() != nil {
				}
				if c.Unblocked() {
					t.Fatal("an MSHR-capacity stall reads unblocked on an empty out-queue")
				}
				return
			}
			// Exactness: pops that leave less room change nothing, and
			// the pop that leaves the room lets the next Tick issue.
			for now := uint64(1); !c.Unblocked(); now++ {
				if q := c.Tick(now); c.span.Stalls != stalls || !q || c.room != tc.room {
					t.Fatalf("cycle %d with %d free slots: stalls %d quiet %v room %d, want %d true %d",
						now, c.outqCap-len(c.outq), c.span.Stalls, q, c.room, stalls, tc.room)
				}
				c.PopRequest()
			}
			if !c.CanInject(tc.room) {
				t.Fatalf("unblocked with %d free slots, room %d", c.outqCap-len(c.outq), tc.room)
			}
			before := c.Stats.InstRetired
			if q := c.Tick(100); q || c.Stats.InstRetired == before {
				t.Fatalf("tick after the pop that left room %d issued nothing", tc.room)
			}
		})
	}
}

// TestStallRoomResetsOnIssue checks that a Tick that issues everywhere
// drops the room and ends the quiet span an earlier stalled Tick left.
func TestStallRoomResetsOnIssue(t *testing.T) {
	c := roomCore(t, 64, memOnly(4, false), memOnly(4, false), 1)
	c.Tick(0)
	if c.room != 4 || !c.Quiet() {
		t.Fatalf("stalled tick reports room %d, quiet %v, want 4 and true", c.room, c.Quiet())
	}
	for c.PopRequest() != nil {
	}
	if quiet := c.Tick(1); quiet || c.room != 0 || c.span != (quietSpan{}) {
		t.Fatalf("issuing tick: quiet %v, room %d, span %+v, want false, 0 and no span", quiet, c.room, c.span)
	}
}
