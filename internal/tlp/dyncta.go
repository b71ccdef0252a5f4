package tlp

import "ebm/internal/config"

// DynCTA implements the per-application dynamic TLP modulation baseline in
// the spirit of DynCTA (Kayiran et al.): each application independently
// monitors its own latency-tolerance signals — how often the core sits
// idle with warps blocked on memory, and how well the issue slots are
// utilized — and nudges its own TLP up or down one level accordingly. The
// defining property the paper criticizes is preserved: the heuristic uses
// only the application's local signals and is oblivious to co-runners'
// shared-resource consumption.
type DynCTA struct {
	DynCTAKnobs
	st voteState
}

// DynCTAKnobs are DynCTA's tunables; the JSON form is the dyncta block
// of a spec.SchemeSpec. Zero fields there take NewDynCTA's defaults.
type DynCTAKnobs struct {
	// HighMemStall: above this fraction of memory-stalled idle cycles the
	// application is deemed memory-saturated and TLP is decreased.
	HighMemStall float64 `json:"high_mem_stall,omitempty"`
	// LowMemStall / LowUtil: below HighMemStall, if issue utilization is
	// below LowUtil, more warps could help hide latency and TLP is
	// increased.
	LowMemStall float64 `json:"low_mem_stall,omitempty"`
	LowUtil     float64 `json:"low_util,omitempty"`

	// Hysteresis: consecutive windows agreeing before a move is made.
	Hysteresis int `json:"hysteresis,omitempty"`
}

// NewDynCTA returns the ++DynCTA policy with the default thresholds.
func NewDynCTA() *DynCTA {
	return &DynCTA{DynCTAKnobs: DynCTAKnobs{
		HighMemStall: 0.5,
		LowMemStall:  0.25,
		LowUtil:      0.8,
		Hysteresis:   2,
	}}
}

// Name implements Manager.
func (d *DynCTA) Name() string { return "++DynCTA" }

// Initial implements Manager: DynCTA starts from a mid TLP and adapts.
func (d *DynCTA) Initial(numApps int) Decision {
	d.st.Votes = make([]int, numApps)
	d.st.Cur = NewDecision(numApps, config.TLPLevels[len(config.TLPLevels)/2])
	return d.st.Cur.Clone()
}

// OnSample implements Manager.
func (d *DynCTA) OnSample(s Sample) Decision {
	if d.st.Votes == nil {
		d.Initial(len(s.Apps))
	}
	for i := range s.Apps {
		a := &s.Apps[i]
		idx := config.LevelIndex(d.st.Cur.TLP[i])
		if idx < 0 {
			idx = len(config.TLPLevels) - 1
		}
		switch {
		case a.MemStallFrac > d.HighMemStall:
			if d.st.Votes[i] > 0 {
				d.st.Votes[i] = 0
			}
			d.st.Votes[i]--
		case a.MemStallFrac < d.LowMemStall && a.IssueUtil < d.LowUtil:
			if d.st.Votes[i] < 0 {
				d.st.Votes[i] = 0
			}
			d.st.Votes[i]++
		default:
			d.st.Votes[i] = 0
		}
		if d.st.Votes[i] <= -d.Hysteresis && idx > 0 {
			idx--
			d.st.Votes[i] = 0
		} else if d.st.Votes[i] >= d.Hysteresis && idx < len(config.TLPLevels)-1 {
			idx++
			d.st.Votes[i] = 0
		}
		d.st.Cur.TLP[i] = config.TLPLevels[idx]
	}
	return d.st.Cur.Clone()
}
