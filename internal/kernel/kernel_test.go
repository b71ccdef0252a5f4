package kernel

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func baseParams() Params {
	return Params{
		Name: "T", Rm: 0.25, ALUDelay: 1, CoalesceLines: 2, StepBytes: 128,
		PrivateWS: 4096, PrivRandom: 0.2, SharedWS: 8192, SharedFrac: 0.3,
		WriteFrac: 0.2, Seed: 7,
	}
}

func TestValidateAcceptsSuiteAndBase(t *testing.T) {
	p := baseParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("base params rejected: %v", err)
	}
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("suite app %s invalid: %v", s.Name, err)
		}
	}
}

// TestValidateLeavesPhasesUntouched: a nameless phase validates under
// its default name without that name being written into the caller's
// Phases, which run specs share.
func TestValidateLeavesPhasesUntouched(t *testing.T) {
	p := baseParams()
	phase := baseParams()
	phase.Name = ""
	p.Phases = []Params{phase}
	if err := p.Validate(); err != nil {
		t.Fatalf("nameless phase rejected: %v", err)
	}
	if p.Phases[0].Name != "" {
		t.Fatalf("Validate named the caller's phase %q", p.Phases[0].Name)
	}
	p.Phases[0].Rm = 0
	if err := p.Validate(); err == nil {
		t.Fatal("invalid nameless phase accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	muts := []func(*Params){
		func(p *Params) { p.Name = "" },
		func(p *Params) { p.Rm = 0 },
		func(p *Params) { p.Rm = 1.5 },
		func(p *Params) { p.ALUDelay = 0 },
		func(p *Params) { p.CoalesceLines = 0 },
		func(p *Params) { p.CoalesceLines = 33 },
		func(p *Params) { p.StepBytes = 0 },
		func(p *Params) { p.PrivateWS = 64 },
		func(p *Params) { p.PrivRandom = -0.1 },
		func(p *Params) { p.SharedFrac = 1.1 },
		func(p *Params) { p.SharedFrac = 0.5; p.SharedWS = 0 },
		func(p *Params) { p.WriteFrac = 2 },
	}
	for i, mut := range muts {
		p := baseParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestComputeRun(t *testing.T) {
	p := baseParams()
	p.Rm = 0.25
	if got := p.ComputeRun(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("ComputeRun = %v, want 3", got)
	}
}

func TestStreamDeterminism(t *testing.T) {
	p := baseParams()
	a := NewWarpStream(&p, 0, 5, 128)
	b := NewWarpStream(&p, 0, 5, 128)
	for i := 0; i < 2000; i++ {
		ia, ib := a.Current(), b.Current()
		if ia.IsMem != ib.IsMem || ia.Write != ib.Write || len(ia.Lines) != len(ib.Lines) {
			t.Fatalf("streams diverged at inst %d", i)
		}
		for j := range ia.Lines {
			if ia.Lines[j] != ib.Lines[j] {
				t.Fatalf("addresses diverged at inst %d line %d", i, j)
			}
		}
		a.Advance()
		b.Advance()
	}
}

func TestCurrentIsIdempotentUntilAdvance(t *testing.T) {
	p := baseParams()
	s := NewWarpStream(&p, 0, 0, 128)
	// Skip to a memory instruction.
	for !s.Current().IsMem {
		s.Advance()
	}
	first := append([]uint64(nil), s.Current().Lines...)
	for k := 0; k < 5; k++ {
		again := s.Current()
		if len(again.Lines) != len(first) {
			t.Fatal("Current changed without Advance")
		}
		for j := range first {
			if again.Lines[j] != first[j] {
				t.Fatal("Current lines changed without Advance")
			}
		}
	}
	if s.Generated() == 0 {
		t.Fatal("Generated not counting")
	}
}

func TestMemoryRatioConvergesToRm(t *testing.T) {
	for _, rm := range []float64{0.1, 0.25, 0.4} {
		p := baseParams()
		p.Rm = rm
		s := NewWarpStream(&p, 0, 0, 128)
		mem := 0
		const n = 40000
		for i := 0; i < n; i++ {
			if s.Current().IsMem {
				mem++
			}
			s.Advance()
		}
		got := float64(mem) / n
		if math.Abs(got-rm) > 0.02 {
			t.Errorf("rm=%v: measured %v", rm, got)
		}
	}
}

func TestWriteFractionConverges(t *testing.T) {
	p := baseParams()
	p.WriteFrac = 0.3
	s := NewWarpStream(&p, 0, 0, 128)
	memN, writes := 0, 0
	for i := 0; i < 60000; i++ {
		in := s.Current()
		if in.IsMem {
			memN++
			if in.Write {
				writes++
			}
		}
		s.Advance()
	}
	got := float64(writes) / float64(memN)
	if math.Abs(got-0.3) > 0.03 {
		t.Fatalf("write fraction %v, want ~0.3", got)
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	p := baseParams()
	const app, warp, line = 1, 3, 128
	s := NewWarpStream(&p, app, warp, line)
	base := AppBase(app)
	for i := 0; i < 20000; i++ {
		in := s.Current()
		if in.IsMem {
			if len(in.Lines) != p.CoalesceLines {
				t.Fatalf("inst %d has %d lines, want %d", i, len(in.Lines), p.CoalesceLines)
			}
			for _, a := range in.Lines {
				if a%line != 0 {
					t.Fatalf("unaligned address %#x", a)
				}
				if a < base || a >= AppBase(app+1) {
					t.Fatalf("address %#x escaped app space [%#x,%#x)", a, base, AppBase(app+1))
				}
			}
		}
		s.Advance()
	}
}

func TestPrivateRegionsDisjointAcrossWarps(t *testing.T) {
	p := baseParams()
	p.SharedFrac = 0 // only private traffic
	p.PrivRandom = 1 // sample the whole region
	seen := map[uint64]int{}
	for warp := 0; warp < 4; warp++ {
		s := NewWarpStream(&p, 0, warp, 128)
		for i := 0; i < 5000; i++ {
			in := s.Current()
			if in.IsMem {
				for _, a := range in.Lines {
					if prev, ok := seen[a]; ok && prev != warp {
						t.Fatalf("address %#x shared between warps %d and %d", a, prev, warp)
					}
					seen[a] = warp
				}
			}
			s.Advance()
		}
	}
}

func TestSequentialWalkCoversWorkingSet(t *testing.T) {
	p := baseParams()
	p.SharedFrac = 0
	p.PrivRandom = 0
	p.CoalesceLines = 1
	p.StepBytes = 128
	p.PrivateWS = 2048 // 16 lines
	s := NewWarpStream(&p, 0, 0, 128)
	lines := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		in := s.Current()
		if in.IsMem {
			lines[in.Lines[0]] = true
		}
		s.Advance()
	}
	if len(lines) != 16 {
		t.Fatalf("sequential walk touched %d distinct lines, want 16", len(lines))
	}
}

func TestSubLineStepRevisitsLines(t *testing.T) {
	// StepBytes < LineBytes yields spatial reuse: consecutive memory
	// instructions hit the same line several times.
	p := baseParams()
	p.SharedFrac = 0
	p.PrivRandom = 0
	p.CoalesceLines = 1
	p.StepBytes = 32 // 4 insts per 128B line
	s := NewWarpStream(&p, 0, 0, 128)
	var prev uint64
	repeats, memN := 0, 0
	for i := 0; i < 8000; i++ {
		in := s.Current()
		if in.IsMem {
			if memN > 0 && in.Lines[0] == prev {
				repeats++
			}
			prev = in.Lines[0]
			memN++
		}
		s.Advance()
	}
	frac := float64(repeats) / float64(memN)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("line repeat fraction %v, want ~0.75 for step=line/4", frac)
	}
}

func TestSuiteLookups(t *testing.T) {
	names := Names()
	if len(names) != 26 {
		t.Fatalf("suite has %d apps, want 26 (Table IV)", len(names))
	}
	sorted := SortedNames()
	if len(sorted) != 26 {
		t.Fatal("SortedNames wrong length")
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatal("SortedNames not sorted")
		}
	}
	for _, n := range names {
		p, ok := ByName(n)
		if !ok || p.Name != n {
			t.Fatalf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("NOPE"); ok {
		t.Fatal("ByName accepted unknown app")
	}
	// All() returns copies: mutating must not affect the suite.
	all := All()
	all[0].Rm = 0.9999
	p, _ := ByName(all[0].Name)
	if p.Rm == 0.9999 {
		t.Fatal("All() exposed the suite's backing array")
	}
}

func TestSuiteSeedsDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, p := range All() {
		if other, ok := seen[p.Seed]; ok {
			t.Fatalf("apps %s and %s share seed %d", other, p.Name, p.Seed)
		}
		seen[p.Seed] = p.Name
	}
}

func TestAppBaseDisjoint(t *testing.T) {
	f := func(a, b uint8) bool {
		if a == b {
			return true
		}
		// App spaces are disjoint 2^40 regions.
		return AppBase(int(a)) != AppBase(int(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTakeComputeMatchesCurrentAdvance holds TakeCompute to its contract
// on every suite kernel: a stream that consumes each instruction through
// TakeCompute, falling back to Current and Advance when it reports false,
// is after every step in exactly the state of one driven by Current and
// Advance alone. Midway both switch to a phase with the next suite
// kernel's behaviour, and every seventh step peeks with Current first, so
// TakeCompute also consumes a compute instruction already current.
func TestTakeComputeMatchesCurrentAdvance(t *testing.T) {
	all := All()
	for i, p := range all {
		next := all[(i+1)%len(all)]
		phase := p
		phase.Name += "#2"
		phase.Rm, phase.ALUDelay, phase.CoalesceLines, phase.WriteFrac = next.Rm, next.ALUDelay, next.CoalesceLines, next.WriteFrac
		t.Run(p.Name, func(t *testing.T) {
			taker, ref := NewWarpStream(&p, 1, 3, 128), NewWarpStream(&p, 1, 3, 128)
			taken := 0
			for step := 0; step < 4000; step++ {
				if step == 2000 {
					taker.SetPhase(&phase)
					ref.SetPhase(&phase)
				}
				if step%7 == 0 {
					taker.Current()
					ref.Current()
				}
				if taker.TakeCompute() {
					taken++
				} else if !taker.Current().IsMem {
					t.Fatalf("step %d: TakeCompute declined a compute instruction", step)
				} else {
					taker.Advance()
				}
				ref.Current()
				ref.Advance()
				if a, b := taker.State(), ref.State(); !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: TakeCompute left\n%+v\nCurrent+Advance left\n%+v", step, a, b)
				}
			}
			if taken == 0 {
				t.Fatal("no compute instruction taken")
			}
		})
	}
}
