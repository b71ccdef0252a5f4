// Package kernel models GPGPU applications as parameterized per-warp
// instruction and address streams.
//
// The paper runs CUDA benchmarks from Rodinia, Parboil, CUDA SDK, and SHOC
// on a GPGPU-Sim-based framework. This repository cannot execute CUDA, so
// each application is replaced by a synthetic kernel whose memory behaviour
// is governed by a small set of knobs: memory-instruction ratio (the
// paper's r_m), per-warp working set and access pattern (spatial stride,
// random fraction, divergence/coalescing degree), an application-shared
// region exercising the L2, and a store fraction. Cache miss rates, DRAM
// row locality, attained bandwidth, and their dependence on TLP all emerge
// from these streams interacting with the cache/DRAM models rather than
// being scripted — which is what the paper's mechanism needs to observe.
package kernel

import (
	"fmt"

	"ebm/internal/stats"
)

// Params describes one application's synthetic behaviour.
type Params struct {
	Name string

	// Rm is the fraction of instructions that are memory instructions
	// (the paper's r_m; arithmetic intensity is (1-Rm)/Rm).
	Rm float64

	// ALUDelay is the issue-to-ready latency of a compute instruction in
	// core cycles: 1 models fully independent (pipelined) arithmetic,
	// larger values model dependent chains with low ILP.
	ALUDelay int

	// CoalesceLines is the number of distinct cache lines one warp memory
	// instruction touches after coalescing: 1 is fully coalesced, up to
	// SIMT width for fully divergent access.
	CoalesceLines int

	// StepBytes is how far the warp's sequential pointer advances per
	// memory instruction. StepBytes < CoalesceLines*LineBytes yields
	// spatial reuse of lines across consecutive instructions.
	StepBytes int

	// PrivateWS is the per-warp private working set in bytes; the warp
	// walks it circularly (sequential portion) or samples it uniformly
	// (random portion, PrivRandom).
	PrivateWS  int
	PrivRandom float64

	// SharedWS is an application-wide region (bytes) all warps share —
	// lookup tables, graph structure, halos. SharedFrac is the
	// probability a memory instruction targets it; SharedSeq selects a
	// per-warp sequential walk instead of uniform sampling.
	SharedWS   int
	SharedFrac float64
	SharedSeq  bool

	// WriteFrac is the probability a memory instruction is a store.
	// Stores are write-through fire-and-forget: they consume bandwidth
	// but do not stall the warp.
	WriteFrac float64

	// KernelInsts, when non-zero, is the application-level instruction
	// count per kernel launch; crossing it triggers a kernel-relaunch
	// event (the paper restarts PBS on every relaunch).
	KernelInsts uint64

	// Phases optionally lists alternate behavioural parameter sets the
	// application cycles through at kernel boundaries (launch 0 runs the
	// base parameters, launch 1 Phases[0], and so on, round robin).
	// Real multi-kernel applications change their memory behaviour
	// between kernels, which is the dynamic interference PBS re-searches
	// against. Each phase must keep the base working-set sizes (the
	// address-space layout is fixed at construction).
	Phases []Params

	// Seed decorrelates applications from each other.
	Seed uint64
}

// Validate reports an error for out-of-range parameters. A phase with no
// name is checked under the name "<base>#<n>". Validate does not modify
// p, so a run spec that shares p keys the same before and after a run
// validates it.
func (p *Params) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("kernel: empty name")
	case p.Rm <= 0 || p.Rm > 1:
		return fmt.Errorf("kernel %s: Rm %v out of (0,1]", p.Name, p.Rm)
	case p.ALUDelay < 1:
		return fmt.Errorf("kernel %s: ALUDelay %d < 1", p.Name, p.ALUDelay)
	case p.CoalesceLines < 1 || p.CoalesceLines > 32:
		return fmt.Errorf("kernel %s: CoalesceLines %d out of [1,32]", p.Name, p.CoalesceLines)
	case p.StepBytes < 1:
		return fmt.Errorf("kernel %s: StepBytes %d < 1", p.Name, p.StepBytes)
	case p.PrivateWS < 128:
		return fmt.Errorf("kernel %s: PrivateWS %d < one line", p.Name, p.PrivateWS)
	case p.PrivRandom < 0 || p.PrivRandom > 1:
		return fmt.Errorf("kernel %s: PrivRandom %v out of [0,1]", p.Name, p.PrivRandom)
	case p.SharedFrac < 0 || p.SharedFrac > 1:
		return fmt.Errorf("kernel %s: SharedFrac %v out of [0,1]", p.Name, p.SharedFrac)
	case p.SharedFrac > 0 && p.SharedWS < 128:
		return fmt.Errorf("kernel %s: SharedFrac set but SharedWS %d < one line", p.Name, p.SharedWS)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("kernel %s: WriteFrac %v out of [0,1]", p.Name, p.WriteFrac)
	}
	for i := range p.Phases {
		ph := p.Phases[i]
		if ph.Name == "" {
			ph.Name = fmt.Sprintf("%s#%d", p.Name, i+1)
		}
		if len(ph.Phases) != 0 {
			return fmt.Errorf("kernel %s: phases cannot nest", p.Name)
		}
		if ph.PrivateWS != p.PrivateWS || ph.SharedWS != p.SharedWS {
			return fmt.Errorf("kernel %s: phase %d changes working-set sizes", p.Name, i)
		}
		if err := ph.Validate(); err != nil {
			return fmt.Errorf("kernel %s: phase %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// ComputeRun returns the mean number of compute instructions between
// memory instructions.
func (p *Params) ComputeRun() float64 {
	return (1 - p.Rm) / p.Rm
}

// Inst is one warp instruction. For memory instructions, Lines lists the
// coalesced line addresses it touches.
type Inst struct {
	IsMem bool
	Write bool
	Lines []uint64
}

// Address-space layout: each application owns a disjoint 1<<40 region so
// co-scheduled applications never alias in the shared L2.
const (
	appSpaceBits   = 40
	privRegionBase = 1 << 32 // private regions start here within the app space
)

// AppBase returns the base address of application app's address space.
func AppBase(app int) uint64 { return uint64(app+1) << appSpaceBits }

// WarpStream generates the deterministic instruction stream of one warp.
type WarpStream struct {
	// TakeCompute touches only these leading fields; together they span
	// at most two cache lines.
	curValid  bool
	cur       Inst
	compLeft  int
	generated uint64 // instructions handed out (telemetry/tests)

	p         *Params
	lineBytes uint64
	rng       stats.RNG

	privBase uint64
	privSize uint64 // line-aligned
	shBase   uint64
	shSize   uint64
	seqPtr   uint64
	shPtr    uint64
	runBase  int // integer part of ComputeRun
	runFrac  float64
	lines    [32]uint64
}

// NewWarpStream builds the stream for globalWarp (unique per app across all
// cores) of application appID. lineBytes is the cache line size.
func NewWarpStream(p *Params, appID, globalWarp, lineBytes int) *WarpStream {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	lb := uint64(lineBytes)
	alignUp := func(x uint64) uint64 {
		if x < lb {
			return lb
		}
		return (x / lb) * lb
	}
	base := AppBase(appID)
	privSize := alignUp(uint64(p.PrivateWS))
	shSize := alignUp(uint64(p.SharedWS))
	if p.SharedFrac == 0 {
		shSize = lb
	}
	root := stats.NewRNG(p.Seed ^ (uint64(appID)+1)*0x9E3779B97F4A7C15)
	run := p.ComputeRun()
	s := &WarpStream{
		p:         p,
		lineBytes: lb,
		rng:       *root.Split(uint64(globalWarp)),
		privBase:  base + privRegionBase + uint64(globalWarp)*privSize,
		privSize:  privSize,
		shBase:    base,
		shSize:    shSize,
		runBase:   int(run),
		runFrac:   run - float64(int(run)),
	}
	// Stagger warps within their walk so that co-resident warps do not
	// march in lockstep (real kernels are skewed by scheduling).
	s.seqPtr = (s.rng.Uint64() % (privSize / lb)) * lb
	s.shPtr = (s.rng.Uint64() % (shSize / lb)) * lb
	s.compLeft = s.rng.Intn(s.runBase + 1)
	return s
}

// Current returns the next instruction without consuming it; repeated
// calls return the same instruction until Advance. This lets the core
// retry issue on structural stalls (full MSHRs, full inject queues)
// without perturbing the stream.
func (s *WarpStream) Current() *Inst {
	if !s.curValid {
		s.generate()
		s.curValid = true
		s.generated++
	}
	return &s.cur
}

// Advance consumes the current instruction.
func (s *WarpStream) Advance() { s.curValid = false }

// TakeCompute consumes the next instruction when it is a compute one and
// reports whether it did. It leaves the stream exactly as Current followed
// by Advance would, without building the instruction; when it reports
// false, Current returns a memory instruction.
func (s *WarpStream) TakeCompute() bool {
	if s.curValid {
		if s.cur.IsMem {
			return false
		}
		s.curValid = false
		return true
	}
	if s.compLeft <= 0 {
		return false
	}
	s.compLeft--
	s.cur = Inst{}
	s.generated++
	return true
}

// Generated returns how many instructions have been handed out.
func (s *WarpStream) Generated() uint64 { return s.generated }

// ALUDelay returns the compute issue-to-ready latency of the kernel.
func (s *WarpStream) ALUDelay() int { return s.p.ALUDelay }

// Params returns the kernel parameters driving this stream.
func (s *WarpStream) Params() *Params { return s.p }

// SetPhase switches the stream to a new behavioural parameter set at a
// kernel boundary. The working-set sizes must match the construction-time
// layout (enforced by Params.Validate on phased applications); walk
// pointers and the random stream carry over so the switch is seamless.
func (s *WarpStream) SetPhase(p *Params) {
	s.p = p
	run := p.ComputeRun()
	s.runBase = int(run)
	s.runFrac = run - float64(int(run))
	if s.compLeft > s.runBase+1 {
		s.compLeft = s.runBase
	}
	s.curValid = false
}

func (s *WarpStream) generate() {
	if s.compLeft > 0 {
		s.compLeft--
		s.cur.IsMem = false
		s.cur.Write = false
		s.cur.Lines = nil
		return
	}
	// Schedule the next compute run, dithering the fractional part so the
	// long-run memory ratio matches Rm exactly in expectation.
	s.compLeft = s.runBase
	if s.rng.Float64() < s.runFrac {
		s.compLeft++
	}

	s.cur.IsMem = true
	s.cur.Write = s.rng.Bool(s.p.WriteFrac)
	n := s.p.CoalesceLines
	lines := s.lines[:0]

	if s.p.SharedFrac > 0 && s.rng.Bool(s.p.SharedFrac) {
		if s.p.SharedSeq {
			for i := 0; i < n; i++ {
				off := (s.shPtr + uint64(i)*s.lineBytes) % s.shSize
				lines = append(lines, s.shBase+off-off%s.lineBytes)
			}
			s.shPtr = (s.shPtr + uint64(s.p.StepBytes)) % s.shSize
		} else {
			nl := s.shSize / s.lineBytes
			for i := 0; i < n; i++ {
				lines = append(lines, s.shBase+(s.rng.Uint64()%nl)*s.lineBytes)
			}
		}
		s.cur.Lines = lines
		return
	}

	if s.rng.Bool(s.p.PrivRandom) {
		nl := s.privSize / s.lineBytes
		for i := 0; i < n; i++ {
			lines = append(lines, s.privBase+(s.rng.Uint64()%nl)*s.lineBytes)
		}
	} else {
		for i := 0; i < n; i++ {
			off := (s.seqPtr + uint64(i)*s.lineBytes) % s.privSize
			lines = append(lines, s.privBase+off-off%s.lineBytes)
		}
		s.seqPtr = (s.seqPtr + uint64(s.p.StepBytes)) % s.privSize
	}
	s.cur.Lines = lines
}
