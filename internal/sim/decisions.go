package sim

import (
	"slices"

	"ebm/internal/tlp"
)

// Decisions is a run's record of its policy's decisions: the change
// points of the policy state, plus the search counts of a policy that
// searches (PBS). It is engine state, carried in every checkpoint, so a
// run forked from a checkpoint returns the same record as the
// uninterrupted run. A static policy decides nothing after its first
// cycle, so its runs carry no record (Result.Decisions is nil).
type Decisions struct {
	// Changes lists the policy state at cycle 0 and then at every window
	// boundary where it differs from the previous one.
	Changes []Change

	// Searches, Restarts and Drifts are a searching policy's completed
	// searches, kernel-relaunch restarts and drift-triggered re-searches
	// (zero for any other policy).
	Searches, Restarts, Drifts uint64
}

// Change is the policy state from Cycle on. At a window boundary, TLP
// and Bypass are what that window's Sample reports: the per-application
// TLP limits and L1 bypass flags in force at the window's end. A
// decision made at a boundary takes effect Options.DecisionDelay cycles
// later, so it shows in the next boundary's Change. Searching is whether
// the policy was searching after it saw the window.
type Change struct {
	Cycle     uint64
	TLP       []int
	Bypass    []bool `json:",omitempty"` // nil when no application's L1 is bypassed
	Searching bool   `json:",omitempty"`
}

// searcher is the search telemetry a policy may report; PBS does.
type searcher interface {
	Searching() bool
	Searches() uint64
	Restarts() uint64
	Drifts() uint64
}

// recording reports whether the run keeps a decision record: every
// policy but a static one.
func (s *Simulator) recording() bool {
	_, static := s.opts.Manager.(*tlp.Static)
	return !static
}

// noteChange appends the policy state at cycle to the record when it
// differs from the last change recorded.
func (s *Simulator) noteChange(cycle uint64) {
	if !s.recording() {
		return
	}
	m, ok := s.opts.Manager.(searcher)
	searching := ok && m.Searching()
	if n := len(s.changes); n > 0 && s.sameState(&s.changes[n-1], searching) {
		return
	}
	c := Change{Cycle: cycle, TLP: make([]int, len(s.appCores)), Searching: searching}
	for app, cores := range s.appCores {
		c.TLP[app] = s.CurrentTLP(app)
		if s.cores[cores[0]].BypassL1() {
			if c.Bypass == nil {
				c.Bypass = make([]bool, len(s.appCores))
			}
			c.Bypass[app] = true
		}
	}
	s.changes = append(s.changes, c)
}

// sameState reports whether the machine's policy state equals c's.
func (s *Simulator) sameState(c *Change, searching bool) bool {
	if c.Searching != searching {
		return false
	}
	for app, cores := range s.appCores {
		bypass := c.Bypass != nil && c.Bypass[app]
		if c.TLP[app] != s.CurrentTLP(app) || bypass != s.cores[cores[0]].BypassL1() {
			return false
		}
	}
	return true
}

// decisions assembles the run's record, nil for a static policy.
func (s *Simulator) decisions() *Decisions {
	if !s.recording() {
		return nil
	}
	d := &Decisions{Changes: slices.Clone(s.changes)}
	if m, ok := s.opts.Manager.(searcher); ok {
		d.Searches, d.Restarts, d.Drifts = m.Searches(), m.Restarts(), m.Drifts()
	}
	return d
}

// WindowStates expands the decision record into the policy state at each
// of the run's r.Windows sampling-window boundaries, windowCycles apart:
// element k is the Change in force at cycle (k+1)*windowCycles, with
// Cycle set to that boundary. It is the per-window series a run's
// Options.OnWindow would have seen, read from the record alone. Nil when
// the run carries no record.
func (r Result) WindowStates(windowCycles uint64) []Change {
	if r.Decisions == nil || len(r.Decisions.Changes) == 0 {
		return nil
	}
	ch := r.Decisions.Changes
	out := make([]Change, r.Windows)
	i := 0
	for k := range out {
		b := uint64(k+1) * windowCycles
		for i+1 < len(ch) && ch[i+1].Cycle <= b {
			i++
		}
		out[k] = ch[i]
		out[k].Cycle = b
	}
	return out
}
