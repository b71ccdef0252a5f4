package sim

import (
	"fmt"

	"ebm/internal/dram"
	"ebm/internal/gpu"
	"ebm/internal/icnt"
	"ebm/internal/mem"
)

// NewReference builds a simulator on the always-tick path: every core and
// every memory partition is ticked every cycle, every core's out-queue
// visited and every crossbar port polled, with no fast-forward, no
// partition skip before NextTick, no empty-queue skip and no
// delivery-pass skip. It must produce exactly what New's engine
// produces; the differential test holds the skips to that.
func NewReference(opts Options) (*Simulator, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	s.reference = true
	return s, nil
}

// CoreStates returns every core's state. Call it after Run, which settles
// the fast-forwarded counters.
func (s *Simulator) CoreStates() []gpu.CoreState {
	out := make([]gpu.CoreState, len(s.cores))
	for i, c := range s.cores {
		out[i] = c.State()
	}
	return out
}

// PartitionStates returns every memory partition's state and
// NetworkStates both crossbar directions' state. Call them after Run;
// a partition's state aliases it.
func (s *Simulator) PartitionStates() []dram.PartitionState {
	out := make([]dram.PartitionState, len(s.partitions))
	for i, p := range s.partitions {
		out[i] = p.State()
	}
	return out
}

func (s *Simulator) NetworkStates() (toMem, toCore icnt.NetworkState) {
	return s.toMem.State(), s.toCore.State()
}

// SkipWork is what the engine's skips did over a simulator's runs:
// partition Tick calls, and out-queue pops from a quiet core that woke
// it or left it asleep.
type SkipWork struct{ PartTicks, PopWakes, PopSleeps uint64 }

func (s *Simulator) SkipWork() SkipWork {
	w := &s.skipWork
	return SkipWork{w.partTicks, w.popWakes, w.popSleeps}
}

// IndexError reports the first way the engine's derived indices differ
// from the components they are derived from: awake must hold exactly the
// cores that are not Quiet, and queued exactly the cores with a pending
// request. The reference engine keeps both sets full, so it has nothing
// to check.
func (s *Simulator) IndexError() error {
	if s.reference {
		return nil
	}
	for ci, c := range s.cores {
		if s.awake.has(ci) == c.Quiet() {
			return fmt.Errorf("cycle %d: core %d awake %v, Quiet %v", s.cycle, ci, s.awake.has(ci), c.Quiet())
		}
		if s.queued.has(ci) != (c.PendingRequests() > 0) {
			return fmt.Errorf("cycle %d: core %d queued %v with %d pending requests",
				s.cycle, ci, s.queued.has(ci), c.PendingRequests())
		}
	}
	return nil
}

// Snapshot and Restore expose the struct form behind SnapshotBytes and
// RestoreBytes. A Snapshot aliases the simulator's live state.
func (s *Simulator) Snapshot() (*EngineState, error) { return s.state() }

func (s *Simulator) Restore(st *EngineState) error { return s.setState(st) }

// EnqueueRecord is one request the crossbar delivered into a partition:
// the memory cycle of its Enqueue and the request by value.
type EnqueueRecord struct {
	MemCycle uint64
	Req      mem.Request
}

// CaptureEnqueues runs opts on New's engine and records every request
// the crossbar delivers into partition part, in delivery order. It also
// returns that partition as the run left it and the number of memory
// cycles the run spanned, so a replay can be checked against the machine.
func CaptureEnqueues(opts Options, part int) ([]EnqueueRecord, *dram.Partition, uint64, error) {
	s, err := New(opts)
	if err != nil {
		return nil, nil, 0, err
	}
	var recs []EnqueueRecord
	s.onEnqueue = func(p int, memCycle uint64, req *mem.Request) {
		if p == part {
			recs = append(recs, EnqueueRecord{MemCycle: memCycle, Req: *req})
		}
	}
	s.Run()
	return recs, s.partitions[part], s.memCycle, nil
}
