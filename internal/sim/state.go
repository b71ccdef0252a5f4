package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"ebm/internal/dram"
	"ebm/internal/gpu"
	"ebm/internal/icnt"
	"ebm/internal/kernel"
	"ebm/internal/mem"
	"ebm/internal/tlp"
)

// SnapshotVersion identifies the EngineState layout. Bump it whenever any
// captured structure changes shape or meaning; stale checkpoints then
// fail to restore and callers fall back to cold execution.
const SnapshotVersion = 2

// AppSnapshotState mirrors the per-app warmup accumulator snapshot.
type AppSnapshotState struct {
	Insts       uint64
	L1Acc       uint64
	L1Miss      uint64
	L2Acc       uint64
	L2Miss      uint64
	BWBytes     uint64
	RowHits     uint64
	RowMiss     uint64
	LatSum      uint64
	Reads       uint64
	Idle        uint64
	MemStall    uint64
	Issued      uint64
	Cycles      uint64
	MemCycles   uint64
	TLPWeighted float64
	Kernels     uint64
}

// EngineState is the complete serializable state of a Simulator at a
// cycle boundary: restoring it into a freshly constructed Simulator with
// the same Options and running to any horizon produces bit-identical
// results to an uninterrupted run. The Options themselves (machine
// configuration, apps, policy parameters) are NOT captured — the caller
// keys checkpoints by the run spec's deterministic prefix and rebuilds
// the machine before restoring.
type EngineState struct {
	Version int

	// Cycle is the core cycle the restored run resumes executing at.
	Cycle      uint64
	MemCycle   uint64
	MemAcc     float64
	Windows    uint64
	NextWindow uint64

	CoreInjectFree []uint64
	PartRespFree   []uint64
	CoreQuiet      []bool
	QuietFrom      []uint64
	QuietMemWait   []bool
	QuietStalls    []int

	CurTLP    []int
	CurBypass []bool

	PendValid  bool
	PendTLP    []int
	PendBypass []bool
	PendAt     uint64

	InstAtLaunch []uint64
	Kernels      []uint64
	PhaseIdx     []int
	TLPAccum     []float64
	LastTLPFlush uint64

	// Warm is nil when the warmup boundary has not been reached yet.
	Warm []AppSnapshotState

	// ManagerName sanity-checks that a checkpoint is restored under the
	// same policy that produced it; Manager is the policy's opaque state.
	ManagerName string
	Manager     []byte

	// Streams is indexed [app][stream] in construction order.
	Streams    [][]kernel.StreamState
	Cores      []gpu.CoreState
	Partitions []dram.PartitionState
	ToMem      icnt.NetworkState
	ToCore     icnt.NetworkState
	Pool       mem.PoolState
}

// Snapshot captures the simulator's complete state. It never mutates the
// simulator (pending idle credits, TLP accumulators, and window marks are
// captured raw), so taking snapshots cannot perturb a run's results.
// Valid after RunContext returns (the state resumes at the cycle the run
// stopped at) and inside a CkptSink callback (the state resumes at the
// first cycle of the next window). It fails if the TLP manager does not
// implement tlp.Stater.
func (s *Simulator) Snapshot() (*EngineState, error) {
	mgr, ok := s.opts.Manager.(tlp.Stater)
	if !ok {
		return nil, fmt.Errorf("sim: manager %q does not support checkpointing", s.opts.Manager.Name())
	}
	mb, err := mgr.StateBytes()
	if err != nil {
		return nil, fmt.Errorf("sim: manager %q state: %w", s.opts.Manager.Name(), err)
	}
	cycle := s.cycle
	if s.atBoundary {
		// The window-boundary bookkeeping for s.cycle already ran; a fork
		// resumes at the next cycle.
		cycle++
	}
	st := &EngineState{
		Version:        SnapshotVersion,
		Cycle:          cycle,
		MemCycle:       s.memCycle,
		MemAcc:         s.memAcc,
		Windows:        s.windows,
		NextWindow:     s.nextWindow,
		CoreInjectFree: append([]uint64(nil), s.coreInjectFree...),
		PartRespFree:   append([]uint64(nil), s.partRespFree...),
		CoreQuiet:      append([]bool(nil), s.coreQuiet...),
		QuietFrom:      append([]uint64(nil), s.quietFrom...),
		QuietMemWait:   append([]bool(nil), s.quietMemWait...),
		QuietStalls:    append([]int(nil), s.quietStalls...),
		CurTLP:         append([]int(nil), s.curDecision.TLP...),
		CurBypass:      append([]bool(nil), s.curDecision.BypassL1...),
		PendAt:         s.pendAt,
		InstAtLaunch:   append([]uint64(nil), s.instAtLaunch...),
		Kernels:        append([]uint64(nil), s.kernels...),
		PhaseIdx:       append([]int(nil), s.phaseIdx...),
		TLPAccum:       append([]float64(nil), s.tlpAccum...),
		LastTLPFlush:   s.lastTLPFlush,
		ManagerName:    s.opts.Manager.Name(),
		Manager:        mb,
		ToMem:          s.toMem.State(),
		ToCore:         s.toCore.State(),
		Pool:           s.pool.State(),
	}
	if s.pendDecision != nil {
		st.PendValid = true
		st.PendTLP = append([]int(nil), s.pendDecision.TLP...)
		st.PendBypass = append([]bool(nil), s.pendDecision.BypassL1...)
	}
	if s.warm != nil {
		st.Warm = make([]AppSnapshotState, len(s.warm))
		for i, w := range s.warm {
			st.Warm[i] = AppSnapshotState{
				Insts: w.insts, L1Acc: w.l1Acc, L1Miss: w.l1Miss,
				L2Acc: w.l2Acc, L2Miss: w.l2Miss, BWBytes: w.bwBytes,
				RowHits: w.rowHits, RowMiss: w.rowMiss, LatSum: w.latSum,
				Reads: w.reads, Idle: w.idle, MemStall: w.memStall,
				Issued: w.issued, Cycles: w.cycles, MemCycles: w.memCycles,
				TLPWeighted: w.tlpWeighted, Kernels: w.kernels,
			}
		}
	}
	st.Streams = make([][]kernel.StreamState, len(s.appStreams))
	for app, streams := range s.appStreams {
		ss := make([]kernel.StreamState, len(streams))
		for i, ws := range streams {
			ss[i] = ws.State()
		}
		st.Streams[app] = ss
	}
	st.Cores = make([]gpu.CoreState, len(s.cores))
	for i, c := range s.cores {
		st.Cores[i] = c.State()
	}
	st.Partitions = make([]dram.PartitionState, len(s.partitions))
	for i, p := range s.partitions {
		st.Partitions[i] = p.State()
	}
	return st, nil
}

// Restore loads a snapshot into a freshly constructed Simulator built
// from the same Options the snapshot's producer used. On success a
// subsequent RunContext resumes at the captured cycle and executes
// bit-identically to the uninterrupted run. On error the simulator may be
// partially mutated and must be discarded.
func (s *Simulator) Restore(st *EngineState) error {
	if st.Version != SnapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, want %d", st.Version, SnapshotVersion)
	}
	mgr, ok := s.opts.Manager.(tlp.Stater)
	if !ok {
		return fmt.Errorf("sim: manager %q does not support checkpointing", s.opts.Manager.Name())
	}
	if st.ManagerName != s.opts.Manager.Name() {
		return fmt.Errorf("sim: snapshot from manager %q restored under %q", st.ManagerName, s.opts.Manager.Name())
	}
	numApps := len(s.appStreams)
	if len(st.Streams) != numApps || len(st.PhaseIdx) != numApps ||
		len(st.CurTLP) != numApps || len(st.InstAtLaunch) != numApps ||
		len(st.Kernels) != numApps || len(st.TLPAccum) != numApps {
		return fmt.Errorf("sim: snapshot has wrong app count")
	}
	if len(st.Cores) != len(s.cores) || len(st.Partitions) != len(s.partitions) {
		return fmt.Errorf("sim: snapshot has %d cores / %d partitions, machine has %d / %d",
			len(st.Cores), len(st.Partitions), len(s.cores), len(s.partitions))
	}
	if len(st.CoreInjectFree) != len(s.cores) || len(st.CoreQuiet) != len(s.cores) ||
		len(st.QuietFrom) != len(s.cores) || len(st.QuietMemWait) != len(s.cores) ||
		len(st.QuietStalls) != len(s.cores) || len(st.PartRespFree) != len(s.partitions) {
		return fmt.Errorf("sim: snapshot per-core/per-partition vectors have wrong length")
	}
	if st.Warm != nil && len(st.Warm) != numApps {
		return fmt.Errorf("sim: snapshot warmup block has %d apps, want %d", len(st.Warm), numApps)
	}
	for app, ss := range st.Streams {
		if len(ss) != len(s.appStreams[app]) {
			return fmt.Errorf("sim: snapshot app %d has %d streams, machine has %d", app, len(ss), len(s.appStreams[app]))
		}
		if st.PhaseIdx[app] < 0 || st.PhaseIdx[app] >= len(s.phaseSets[app]) {
			return fmt.Errorf("sim: snapshot app %d phase %d out of range", app, st.PhaseIdx[app])
		}
	}
	if err := mgr.SetStateBytes(st.Manager); err != nil {
		return err
	}
	for app, ss := range st.Streams {
		p := s.phaseSets[app][st.PhaseIdx[app]]
		for i, ws := range s.appStreams[app] {
			// Bind the stream to the snapshot's kernel phase first (sets
			// the params pointer), then overwrite the mutable walk state.
			ws.SetPhase(p)
			ws.SetState(ss[i])
		}
		s.phaseIdx[app] = st.PhaseIdx[app]
	}
	for i, c := range s.cores {
		if err := c.SetState(st.Cores[i]); err != nil {
			return err
		}
	}
	for i, p := range s.partitions {
		if err := p.SetState(st.Partitions[i]); err != nil {
			return err
		}
	}
	if err := s.toMem.SetState(st.ToMem); err != nil {
		return err
	}
	if err := s.toCore.SetState(st.ToCore); err != nil {
		return err
	}
	s.pool.SetState(st.Pool)

	copy(s.coreInjectFree, st.CoreInjectFree)
	copy(s.partRespFree, st.PartRespFree)
	copy(s.coreQuiet, st.CoreQuiet)
	copy(s.quietFrom, st.QuietFrom)
	copy(s.quietMemWait, st.QuietMemWait)
	copy(s.quietStalls, st.QuietStalls)
	copy(s.instAtLaunch, st.InstAtLaunch)
	copy(s.kernels, st.Kernels)
	copy(s.tlpAccum, st.TLPAccum)
	s.lastTLPFlush = st.LastTLPFlush

	// The cores carry their own restored TLP/bypass hardware state; the
	// decision registers are set directly, without applyDecision's wake
	// and flush side effects.
	s.curDecision = tlp.Decision{
		TLP:      append([]int(nil), st.CurTLP...),
		BypassL1: append([]bool(nil), st.CurBypass...),
	}
	s.pendDecision = nil
	if st.PendValid {
		d := tlp.Decision{
			TLP:      append([]int(nil), st.PendTLP...),
			BypassL1: append([]bool(nil), st.PendBypass...),
		}
		s.pendDecision = &d
	}
	s.pendAt = st.PendAt

	s.warm = nil
	if st.Warm != nil {
		s.warm = make([]appSnapshot, len(st.Warm))
		for i, w := range st.Warm {
			s.warm[i] = appSnapshot{
				insts: w.Insts, l1Acc: w.L1Acc, l1Miss: w.L1Miss,
				l2Acc: w.L2Acc, l2Miss: w.L2Miss, bwBytes: w.BWBytes,
				rowHits: w.RowHits, rowMiss: w.RowMiss, latSum: w.LatSum,
				reads: w.Reads, idle: w.Idle, memStall: w.MemStall,
				issued: w.Issued, cycles: w.Cycles, memCycles: w.MemCycles,
				tlpWeighted: w.TLPWeighted, kernels: w.Kernels,
			}
		}
	}

	s.cycle = st.Cycle
	s.memCycle = st.MemCycle
	s.memAcc = st.MemAcc
	s.windows = st.Windows
	s.nextWindow = st.NextWindow
	s.ckptDead = false
	s.atBoundary = false
	return nil
}

// SnapshotBytes is Snapshot serialized with gob.
func (s *Simulator) SnapshotBytes() ([]byte, error) {
	st, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("sim: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreBytes decodes and restores a SnapshotBytes payload.
func (s *Simulator) RestoreBytes(data []byte) error {
	var st EngineState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("sim: decode snapshot: %w", err)
	}
	return s.Restore(&st)
}
