package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

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
const SnapshotVersion = 9

// EngineState is the complete serializable state of a Simulator at a
// cycle boundary: restoring it into a freshly constructed Simulator with
// the same Options and running to any horizon produces bit-identical
// results to an uninterrupted run. The Options themselves (machine
// configuration, apps, policy parameters) are NOT captured — the caller
// keys checkpoints by the run spec's deterministic prefix and rebuilds
// the machine before restoring.
//
// The slices of a captured EngineState alias the simulator's live
// state, so SnapshotBytes encodes it straight away.
type EngineState struct {
	Version int

	// Cycle is the core cycle the restored run resumes executing at.
	Cycle      uint64
	MemCycle   uint64
	MemAcc     float64
	Windows    uint64
	NextWindow uint64

	Cur    tlp.Decision
	Pend   *tlp.Decision // nil when no decision is in flight
	PendAt uint64
	// Changes is the decision record's change points so far.
	Changes []Change

	InstAtLaunch []uint64
	Kernels      []uint64
	PhaseIdx     []int
	TLPAccum     []float64
	LastTLPFlush uint64

	// Warm is nil when the warmup boundary has not been reached yet.
	Warm []appSnapshot
	// Window holds the totals at the current sampling window's start.
	Window windowStart

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

// state captures the simulator's complete state. It never mutates the
// simulator (quiet cores' spans, skipped partition retries and TLP
// accumulators are captured raw), so taking snapshots cannot perturb a
// run's results. The awake, queued and headDst indices are not
// captured: setState rebuilds them from the components.
// Valid after RunContext returns (the state resumes at the cycle the run
// stopped at) and inside a CkptSink callback (the state resumes at the
// first cycle of the next window). It fails if the TLP manager does not
// implement tlp.Stater.
func (s *Simulator) state() (*EngineState, error) {
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
		Version:      SnapshotVersion,
		Cycle:        cycle,
		MemCycle:     s.memCycle,
		MemAcc:       s.memAcc,
		Windows:      s.windows,
		NextWindow:   s.nextWindow,
		Cur:          s.curDecision,
		Pend:         s.pendDecision,
		PendAt:       s.pendAt,
		Changes:      s.changes,
		InstAtLaunch: s.instAtLaunch,
		Kernels:      s.kernels,
		PhaseIdx:     s.phaseIdx,
		TLPAccum:     s.tlpAccum,
		LastTLPFlush: s.lastTLPFlush,
		Warm:         s.warm,
		Window:       s.win,
		ManagerName:  s.opts.Manager.Name(),
		Manager:      mb,
		Streams:      make([][]kernel.StreamState, len(s.appStreams)),
		Cores:        make([]gpu.CoreState, len(s.cores)),
		Partitions:   make([]dram.PartitionState, len(s.partitions)),
		ToMem:        s.toMem.State(),
		ToCore:       s.toCore.State(),
		Pool:         s.pool.State(),
	}
	for app, streams := range s.appStreams {
		ss := make([]kernel.StreamState, len(streams))
		for i, ws := range streams {
			ss[i] = ws.State()
		}
		st.Streams[app] = ss
	}
	for i, c := range s.cores {
		st.Cores[i] = c.State()
	}
	for i, p := range s.partitions {
		st.Partitions[i] = p.State()
	}
	return st, nil
}

// setState loads a snapshot into a freshly constructed Simulator built
// from the same Options the snapshot's producer used. It copies out of
// st, so st may alias another simulator's live state. On success a
// subsequent RunContext resumes at the captured cycle and executes
// bit-identically to the uninterrupted run. On error the simulator may be
// partially mutated and must be discarded.
func (s *Simulator) setState(st *EngineState) error {
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
		len(st.Cur.TLP) != numApps || len(st.InstAtLaunch) != numApps ||
		len(st.Kernels) != numApps || len(st.TLPAccum) != numApps {
		return fmt.Errorf("sim: snapshot has wrong app count")
	}
	if len(st.Cores) != len(s.cores) || len(st.Partitions) != len(s.partitions) {
		return fmt.Errorf("sim: snapshot has %d cores / %d partitions, machine has %d / %d",
			len(st.Cores), len(st.Partitions), len(s.cores), len(s.partitions))
	}
	if st.Warm != nil && len(st.Warm) != numApps {
		return fmt.Errorf("sim: snapshot warmup block has %d apps, want %d", len(st.Warm), numApps)
	}
	if len(st.Window.Apps) != numApps || len(st.Window.BusBusy) != len(s.partitions) {
		return fmt.Errorf("sim: snapshot window-start record has %d apps / %d partitions, want %d / %d",
			len(st.Window.Apps), len(st.Window.BusBusy), numApps, len(s.partitions))
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

	clear(s.awake)
	clear(s.queued)
	for ci, c := range s.cores {
		if !c.Quiet() {
			s.awake.add(ci)
		}
		if c.PendingRequests() > 0 {
			s.queued.add(ci)
		}
		s.headDst[ci] = -1
	}
	copy(s.instAtLaunch, st.InstAtLaunch)
	copy(s.kernels, st.Kernels)
	copy(s.tlpAccum, st.TLPAccum)
	s.lastTLPFlush = st.LastTLPFlush

	// The cores carry their own restored TLP/bypass hardware state; the
	// decision registers are set directly, without applyDecision's wake
	// and flush side effects.
	s.curDecision = st.Cur.Clone()
	s.pendDecision = nil
	if st.Pend != nil {
		d := st.Pend.Clone()
		s.pendDecision = &d
	}
	s.pendAt = st.PendAt
	s.changes = slices.Clone(st.Changes)
	s.warm = append([]appSnapshot(nil), st.Warm...)
	copy(s.win.Apps, st.Window.Apps)
	copy(s.win.BusBusy, st.Window.BusBusy)

	s.cycle = st.Cycle
	s.memCycle = st.MemCycle
	s.memAcc = st.MemAcc
	s.windows = st.Windows
	s.nextWindow = st.NextWindow
	s.ckptDead = false
	s.atBoundary = false
	return nil
}

// SnapshotBytes captures the simulator's complete state and serializes it
// with gob. It never mutates the simulator, so taking snapshots cannot
// perturb a run's results. Valid after RunContext returns (the state
// resumes at the cycle the run stopped at) and inside a CkptSink callback
// (the state resumes at the first cycle of the next window). It fails if
// the TLP manager does not implement tlp.Stater.
func (s *Simulator) SnapshotBytes() ([]byte, error) {
	st, err := s.state()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("sim: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreBytes decodes a SnapshotBytes payload and loads it into a freshly
// constructed Simulator built from the same Options the snapshot's
// producer used. On success a subsequent RunContext resumes at the
// captured cycle and executes bit-identically to the uninterrupted run.
// On error the simulator may be partially mutated and must be discarded.
func (s *Simulator) RestoreBytes(data []byte) error {
	var st EngineState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("sim: decode snapshot: %w", err)
	}
	return s.setState(&st)
}
