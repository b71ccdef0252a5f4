package tlp

import "ebm/internal/config"

// WRS implements a warp-resource-sharing policy in the spirit of Jatala
// et al.: the machine's warp budget is conserved rather than per-app
// capped. Every application starts at an equal fair share, and warp
// slots migrate from applications that cannot use them (memory-saturated
// ones, whose extra warps only deepen queueing) to applications that can
// (busy, latency-limited ones), one TLP level per hysteresis period. The
// conservation constraint is what distinguishes it from DynCTA-style
// local modulation: the total allocation, measured in TLP-level indices,
// never exceeds numApps times the fair share, so one application's gain
// is always another's (idle) capacity.
type WRS struct {
	WRSKnobs
	st voteState // a vote is + to take a level, - to donate one
}

// WRSKnobs are WRS's tunables; the JSON form is the wrs block of a
// spec.SchemeSpec. Zero fields there take NewWRS's defaults.
type WRSKnobs struct {
	// Share is the per-application fair-share TLP level; the conserved
	// machine budget is numApps * LevelIndex(Share) level steps.
	Share int `json:"share,omitempty"`

	// HighMemStall marks a donor: above this fraction of memory-stalled
	// idle cycles the application yields a level.
	HighMemStall float64 `json:"high_mem_stall,omitempty"`
	// LowUtil gates takers: an application below HighMemStall whose
	// issue utilization is under LowUtil still has latency to hide, so
	// it bids for a level.
	LowUtil float64 `json:"low_util,omitempty"`

	// Hysteresis: consecutive windows agreeing before a slot moves.
	Hysteresis int `json:"hysteresis,omitempty"`
}

// NewWRS returns the warp-resource-sharing policy with its defaults: an
// 8-warp fair share (the mid TLP level), donors above 50% memory stall,
// takers under 70% issue utilization, and 2-window hysteresis.
func NewWRS() *WRS {
	return &WRS{WRSKnobs: WRSKnobs{Share: 8, HighMemStall: 0.5, LowUtil: 0.7, Hysteresis: 2}}
}

// Name implements Manager.
func (w *WRS) Name() string { return "++WRS" }

// Initial implements Manager: everyone starts at the fair share.
func (w *WRS) Initial(numApps int) Decision {
	w.st.Votes = make([]int, numApps)
	w.st.Cur = NewDecision(numApps, config.ClampToLevel(w.Share))
	return w.st.Cur.Clone()
}

// budget is the conserved allocation in TLP-level-index steps.
func (w *WRS) budget(numApps int) int {
	return numApps * config.LevelIndex(config.ClampToLevel(w.Share))
}

// allocated sums the current allocation in level-index steps.
func (w *WRS) allocated() int {
	total := 0
	for _, t := range w.st.Cur.TLP {
		total += config.LevelIndex(config.ClampToLevel(t))
	}
	return total
}

// OnSample implements Manager. Donors release first so the freed budget
// is available to takers in the same window; ties break on the lowest
// application index, keeping the policy deterministic.
func (w *WRS) OnSample(s Sample) Decision {
	if w.st.Votes == nil {
		w.Initial(len(s.Apps))
	}
	for i := range s.Apps {
		a := &s.Apps[i]
		switch {
		case a.MemStallFrac > w.HighMemStall:
			if w.st.Votes[i] > 0 {
				w.st.Votes[i] = 0
			}
			w.st.Votes[i]--
		case a.IssueUtil < w.LowUtil:
			if w.st.Votes[i] < 0 {
				w.st.Votes[i] = 0
			}
			w.st.Votes[i]++
		default:
			w.st.Votes[i] = 0
		}
	}
	// Donors first: a released level immediately re-enters the pool.
	for i := range w.st.Cur.TLP {
		idx := config.LevelIndex(config.ClampToLevel(w.st.Cur.TLP[i]))
		if w.st.Votes[i] <= -w.Hysteresis && idx > 0 {
			w.st.Cur.TLP[i] = config.TLPLevels[idx-1]
			w.st.Votes[i] = 0
		}
	}
	// Takers claim one level each while the conserved budget allows.
	for i := range w.st.Cur.TLP {
		idx := config.LevelIndex(config.ClampToLevel(w.st.Cur.TLP[i]))
		if w.st.Votes[i] >= w.Hysteresis && idx < len(config.TLPLevels)-1 &&
			w.allocated()+1 <= w.budget(len(s.Apps)) {
			w.st.Cur.TLP[i] = config.TLPLevels[idx+1]
			w.st.Votes[i] = 0
		}
	}
	return w.st.Cur.Clone()
}
