package tlp

// ModBypass implements the Mod+Bypass comparison scheme: DynCTA-style TLP
// modulation combined with L1 cache bypassing for applications that do not
// benefit from the cache. Bypassing the cache-insensitive application
// frees L1 (and, through reduced thrashing, L2) capacity for the
// cache-sensitive co-runner, which is where the scheme's gains over plain
// ++DynCTA come from. Like DynCTA it works from per-application local
// signals and does not reason about aggregate bandwidth, which is the gap
// the paper's PBS closes.
type ModBypass struct {
	ModBypassKnobs
	mod *DynCTA
	st  probeState
}

// ModBypassKnobs are ModBypass's tunables; the JSON form is the modbypass
// block of a spec.SchemeSpec. Zero fields there take NewModBypass's
// defaults.
type ModBypassKnobs struct {
	// BypassL1MR: an application whose L1 miss rate stays at or above
	// this for Confirm consecutive windows is declared cache-insensitive
	// and its L1 is bypassed. The miss rate is not observable once
	// bypassing, so re-enablement uses a periodic probe window instead:
	// the cache stays on after a probe that measures a rate below it.
	BypassL1MR float64 `json:"bypass_l1mr,omitempty"`
	Confirm    int     `json:"confirm,omitempty"`
	// ProbeEvery is the number of windows between probation windows
	// while bypassing; a non-positive value never probes.
	ProbeEvery int `json:"probe_every,omitempty"`
}

// NewModBypass returns the Mod+Bypass policy with default thresholds.
func NewModBypass() *ModBypass {
	return &ModBypass{
		ModBypassKnobs: ModBypassKnobs{BypassL1MR: 0.95, Confirm: 3, ProbeEvery: 32},
		mod:            NewDynCTA(),
	}
}

// Name implements Manager.
func (m *ModBypass) Name() string { return "Mod+Bypass" }

// Initial implements Manager.
func (m *ModBypass) Initial(numApps int) Decision {
	m.st.Votes = make([]int, numApps)
	m.st.Windows = make([]int, numApps)
	m.st.ProbeActive = make([]bool, numApps)
	m.st.Cur = m.mod.Initial(numApps)
	return m.st.Cur.Clone()
}

// OnSample implements Manager.
func (m *ModBypass) OnSample(s Sample) Decision {
	if m.st.Votes == nil {
		m.Initial(len(s.Apps))
	}
	d := m.mod.OnSample(s)
	if len(m.st.Cur.BypassL1) != len(s.Apps) {
		m.st.Cur = NewDecision(len(s.Apps), 0)
	}
	for i := range s.Apps {
		a := &s.Apps[i]
		m.st.Windows[i]++
		bypassing := m.st.Cur.BypassL1[i]
		switch {
		case !bypassing:
			if a.L1MR >= m.BypassL1MR {
				m.st.Votes[i]++
			} else {
				m.st.Votes[i] = 0
			}
			if m.st.Votes[i] >= m.Confirm {
				m.st.Cur.BypassL1[i] = true
				m.st.Votes[i] = 0
			}
		case m.st.ProbeActive[i]:
			// Probation window just ran with the cache on; keep the cache
			// if it proved useful, otherwise return to bypassing.
			m.st.ProbeActive[i] = false
			m.st.Cur.BypassL1[i] = a.L1MR >= m.BypassL1MR
		default:
			if m.ProbeEvery > 0 && m.st.Windows[i]%m.ProbeEvery == 0 {
				// Run one window with the cache enabled to re-measure.
				m.st.ProbeActive[i] = true
				m.st.Cur.BypassL1[i] = false
			}
		}
	}
	d.BypassL1 = append([]bool(nil), m.st.Cur.BypassL1...)
	m.st.Cur.TLP = d.TLP
	return d
}
