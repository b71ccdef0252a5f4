package tlp

import "ebm/internal/config"

// CCWS implements a cache-conscious wavefront-scheduling-inspired baseline
// (after Rogers et al.): each application watches its lost-locality signal
// — the fraction of L1 misses whose tags are still in a small victim tag
// array, i.e. lines that were recently evicted by the application's own
// thrashing — and throttles its TLP when locality is being destroyed,
// releasing warps again when locality recovers. Like DynCTA it is a
// single-application heuristic with no view of co-runners' shared-resource
// consumption, which is the gap the paper's PBS closes.
//
// The simulator's victim-tag detector must be enabled
// (sim.Options.VictimTags > 0) for the VTARate signal to be non-zero;
// otherwise CCWS degenerates to holding its initial TLP.
type CCWS struct {
	CCWSKnobs
	st voteState
}

// CCWSKnobs are CCWS's tunables; the JSON form is the ccws block of a
// spec.SchemeSpec. Zero fields there take NewCCWS's defaults.
type CCWSKnobs struct {
	// HighVTA: above this lost-locality fraction the application is
	// thrashing its own L1 and TLP is decreased.
	HighVTA float64 `json:"high_vta,omitempty"`
	// LowVTA / LowUtil: with locality healthy and issue slots idle, TLP
	// is increased to hide more latency.
	LowVTA  float64 `json:"low_vta,omitempty"`
	LowUtil float64 `json:"low_util,omitempty"`
	// Hysteresis: consecutive agreeing windows before a move.
	Hysteresis int `json:"hysteresis,omitempty"`
}

// NewCCWS returns the CCWS-style baseline with default thresholds.
func NewCCWS() *CCWS {
	return &CCWS{CCWSKnobs: CCWSKnobs{
		HighVTA:    0.15,
		LowVTA:     0.05,
		LowUtil:    0.8,
		Hysteresis: 2,
	}}
}

// Name implements Manager.
func (c *CCWS) Name() string { return "++CCWS" }

// Initial implements Manager: start from maxTLP and throttle on evidence,
// which is CCWS's direction of travel (it reacts to detected thrashing).
func (c *CCWS) Initial(numApps int) Decision {
	c.st.Votes = make([]int, numApps)
	c.st.Cur = NewDecision(numApps, config.MaxTLP)
	return c.st.Cur.Clone()
}

// OnSample implements Manager.
func (c *CCWS) OnSample(s Sample) Decision {
	if c.st.Votes == nil {
		c.Initial(len(s.Apps))
	}
	for i := range s.Apps {
		a := &s.Apps[i]
		idx := config.LevelIndex(c.st.Cur.TLP[i])
		if idx < 0 {
			idx = len(config.TLPLevels) - 1
		}
		switch {
		case a.VTARate > c.HighVTA:
			if c.st.Votes[i] > 0 {
				c.st.Votes[i] = 0
			}
			c.st.Votes[i]--
		case a.VTARate < c.LowVTA && a.IssueUtil < c.LowUtil:
			if c.st.Votes[i] < 0 {
				c.st.Votes[i] = 0
			}
			c.st.Votes[i]++
		default:
			c.st.Votes[i] = 0
		}
		if c.st.Votes[i] <= -c.Hysteresis && idx > 0 {
			idx--
			c.st.Votes[i] = 0
		} else if c.st.Votes[i] >= c.Hysteresis && idx < len(config.TLPLevels)-1 {
			idx++
			c.st.Votes[i] = 0
		}
		c.st.Cur.TLP[i] = config.TLPLevels[idx]
	}
	return c.st.Cur.Clone()
}
