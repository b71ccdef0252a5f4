package sim

import "ebm/internal/gpu"

// NewReference builds a simulator on the always-tick path: every core and
// every memory partition is ticked every cycle, with no fast-forward and
// no quiescent-partition skip. It must produce exactly what New's engine
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

// Snapshot and Restore expose the struct form behind SnapshotBytes and
// RestoreBytes. A Snapshot aliases the simulator's live state.
func (s *Simulator) Snapshot() (*EngineState, error) { return s.state() }

func (s *Simulator) Restore(st *EngineState) error { return s.setState(st) }
