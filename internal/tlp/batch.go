package tlp

import "ebm/internal/config"

// Batch implements a thread-batching policy in the spirit of Li et al.'s
// throughput-oriented thread batching: instead of every application
// holding a mid-level warp allocation all the time, the applications take
// turns as the "batched" one — the active application runs at a high TLP
// for a fixed number of sampling windows while the others idle at a low
// TLP, then the turn rotates. Concentrating the warp budget on one
// application at a time keeps its cache footprint and row-buffer locality
// intact (the property thread batching exploits), at the cost of latency
// fairness — which is exactly the trade-off the paper's comparison column
// is meant to expose.
type Batch struct {
	BatchKnobs
	st turnState
}

// BatchKnobs are Batch's tunables; the JSON form is the batch block of a
// spec.SchemeSpec. Zero fields there take NewBatch's defaults.
type BatchKnobs struct {
	// Period is how many sampling windows one application stays active
	// before the turn rotates.
	Period int `json:"period,omitempty"`
	// Hi is the active application's TLP; Lo is everyone else's.
	Hi int `json:"hi,omitempty"`
	Lo int `json:"lo,omitempty"`
}

// NewBatch returns the thread-batching policy with its default knobs:
// 8-window turns, the full warp budget for the active application, and a
// trickle of 2 warps for the parked ones (enough to keep their kernels
// making forward progress between turns).
func NewBatch() *Batch {
	return &Batch{BatchKnobs: BatchKnobs{Period: 8, Hi: config.MaxTLP, Lo: 2}}
}

// Name implements Manager.
func (b *Batch) Name() string { return "++Batch" }

// decide computes the rotation's decision for the current window count.
func (b *Batch) decide(numApps int) Decision {
	d := NewDecision(numApps, b.Lo)
	if numApps > 0 {
		active := int(b.st.Win/uint64(b.Period)) % numApps
		d.TLP[active] = b.Hi
	}
	return d
}

// Initial implements Manager: application 0 owns the first turn.
func (b *Batch) Initial(numApps int) Decision {
	b.st.Win = 0
	b.st.Cur = b.decide(numApps)
	return b.st.Cur.Clone()
}

// OnSample implements Manager: advance the window clock and rotate the
// active application every Period windows.
func (b *Batch) OnSample(s Sample) Decision {
	if b.st.Cur.TLP == nil {
		b.Initial(len(s.Apps))
	}
	b.st.Win++
	b.st.Cur = b.decide(len(s.Apps))
	return b.st.Cur.Clone()
}
