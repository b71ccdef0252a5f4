// Package core implements the paper's contribution: effective-bandwidth
// monitoring and the Pattern-Based Searching (PBS) TLP managers PBS-WS,
// PBS-FI, and PBS-HS (Section V).
//
// PBS finds, online, the per-application TLP combination that maximizes an
// EB-based system metric. Instead of exhaustively sampling all 64
// combinations, it exploits the pattern that an application's EB
// inflection point sits at the same TLP level regardless of the
// co-runners' TLP:
//
//  1. (Guideline-1) start from maxTLP for everyone so resources are not
//     under-utilized;
//  2. sweep each application's TLP with the co-runners pinned at maxTLP
//     and find the *critical application* — the one whose sweep causes
//     the largest drop in the EB metric — then pin it at its inflection
//     point (the sweep's argmax);
//  3. tune the non-critical application(s) downward from maxTLP and stop
//     as soon as the metric no longer improves.
//
// Every step executes for real on the simulated GPU, so all sampling
// overheads (suboptimal exploration windows, settling time after a TLP
// change, decision relay latency) are paid exactly as the paper models
// them. The search restarts whenever a kernel is re-launched.
package core

import (
	"fmt"
	"sort"

	"ebm/internal/config"
	"ebm/internal/metrics"
	"ebm/internal/tlp"
)

// ScaleMode selects how PBS-FI / PBS-HS obtain the alone-EB scaling
// factors of Section IV.
type ScaleMode int

const (
	// NoScale uses raw EB values (the paper's choice for optimizing WS).
	NoScale ScaleMode = iota
	// GroupScale uses user-supplied per-application values (the paper's
	// "group information" — the average alone-EB of the app's group).
	GroupScale
	// SampledScale measures each application's EB online while the
	// co-runners run at TLP=1 (least interference), approximating its
	// alone EB.
	SampledScale
)

// String implements fmt.Stringer.
func (m ScaleMode) String() string {
	switch m {
	case NoScale:
		return "none"
	case GroupScale:
		return "group"
	case SampledScale:
		return "sampled"
	default:
		return fmt.Sprintf("ScaleMode(%d)", int(m))
	}
}

// TableEntry is one line of the Fig. 8 sampling table: the EB of every
// application observed under one TLP combination.
type TableEntry struct {
	TLP []int
	EB  []float64
}

// tableSize is the hardware sampling-table capacity (Fig. 8).
const tableSize = 16

type phase int

const (
	phInit   phase = iota // apply (max,max,...), settle
	phScale               // sampled-scale measurement rounds
	phSweep               // per-app TLP sweeps (find the critical app)
	phTune                // tune the non-critical apps
	phStable              // hold the chosen combination
)

func (p phase) String() string {
	switch p {
	case phInit:
		return "init"
	case phScale:
		return "scale"
	case phSweep:
		return "sweep"
	case phTune:
		return "tune"
	case phStable:
		return "stable"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// PBS is the online pattern-based searching TLP manager.
type PBS struct {
	// Objective selects the EB metric: ObjWS -> PBS-WS, ObjFI -> PBS-FI,
	// ObjHS -> PBS-HS.
	Objective metrics.Objective

	// Scaling selects the alone-EB scaling source; GroupValues supplies
	// the factors when Scaling == GroupScale.
	Scaling     ScaleMode
	GroupValues []float64

	// SweepLevels are the TLP levels probed during the critical-app
	// sweep (default 1,2,4,8,16,24).
	SweepLevels []int

	// SettleWindows is how many sampling windows to discard after every
	// TLP change before trusting a measurement (cache warm-up).
	SettleWindows int

	// MeasureWindows is how many post-settle windows are averaged into
	// one observation. The designated-core/partition sampling hardware is
	// cheap but noisy; averaging is the paper's "monitoring interval of N
	// cycles per combination" knob.
	MeasureWindows int

	// TunePatience is how many consecutive non-improving tuning steps are
	// tolerated before the search stops and reverts to the best level
	// seen (guards against a noisy window ending the search early).
	TunePatience int

	// FullSearchEvery controls how often a kernel relaunch triggers a
	// full sweep-based re-search instead of a quick re-tune. The pattern
	// property (inflection points persist across co-runner behaviour) is
	// exactly what makes the quick path sound: the critical application
	// and its inflection are retained and only the non-critical TLPs are
	// re-tuned against the new interference. Every FullSearchEvery-th
	// relaunch re-validates the pattern with full sweeps. 1 forces a full
	// search every time.
	FullSearchEvery int

	// DriftThreshold, when positive, enables re-searching without a
	// kernel relaunch (an extension beyond the paper): if the observed
	// metric stays below DriftThreshold x the value the search locked in
	// for DriftWindows consecutive stable windows, the interference has
	// shifted and the sweeps restart. Zero disables.
	DriftThreshold float64
	DriftWindows   int

	// st is every mutable field of the search state machine; the
	// checkpoint encodes it as is.
	st pbsState
}

// NewPBS returns a PBS manager for the given objective. PBS-FI and PBS-HS
// default to sampled scaling (no user input needed); pass GroupValues and
// set Scaling to GroupScale to use group information instead.
func NewPBS(obj metrics.Objective) *PBS {
	p := &PBS{
		Objective:       obj,
		SweepLevels:     []int{1, 2, 4, 8, 16, 24},
		SettleWindows:   1,
		MeasureWindows:  2,
		TunePatience:    2,
		FullSearchEvery: 4,
	}
	if obj != metrics.ObjWS {
		p.Scaling = SampledScale
	}
	return p
}

// Name implements tlp.Manager.
func (p *PBS) Name() string {
	n := "PBS-" + p.Objective.String()
	if p.Objective != metrics.ObjWS {
		n += "(" + p.Scaling.String() + ")"
	}
	return n
}

// Initial implements tlp.Manager.
func (p *PBS) Initial(numApps int) tlp.Decision {
	p.st.NumApps = numApps
	p.st.Cur = tlp.NewDecision(numApps, config.MaxTLP)
	p.st.Phase = phInit
	p.st.Settle = p.SettleWindows
	p.st.Scale = nil
	if p.Scaling == GroupScale {
		p.st.Scale = append([]float64(nil), p.GroupValues...)
	}
	p.resetSearch()
	return p.st.Cur.Clone()
}

func (p *PBS) resetSearch() {
	p.st.SweepApp = 0
	p.st.SweepIdx = 0
	p.st.SweepM = make([][]float64, p.st.NumApps)
	p.st.OwnEB = make([][]float64, p.st.NumApps)
	p.st.SweepD = make([][]float64, p.st.NumApps)
	p.st.SweepSum = make([][]float64, p.st.NumApps)
	p.st.SweepRawA = make([][]float64, p.st.NumApps)
	p.st.SweepRawB = make([][]float64, p.st.NumApps)
	for i := range p.st.SweepM {
		p.st.SweepM[i] = make([]float64, len(p.SweepLevels))
		p.st.OwnEB[i] = make([]float64, len(p.SweepLevels))
		p.st.SweepD[i] = make([]float64, len(p.SweepLevels))
		p.st.SweepSum[i] = make([]float64, len(p.SweepLevels))
		p.st.SweepRawA[i] = make([]float64, len(p.SweepLevels))
		p.st.SweepRawB[i] = make([]float64, len(p.SweepLevels))
	}
	if p.Scaling == SampledScale {
		p.st.Scale = nil // re-measure after the sweeps
	}
	p.st.CapLevel = nil
	p.st.TuneDiffs = nil
	p.st.TuneSums = nil
	p.st.StableM = 0
	p.st.DriftCount = 0
	p.resetAcc()
	p.st.Critical = -1
	p.st.TuneOrder = nil
	p.st.TuneAppIdx = 0
	p.st.TuneLvlIdx = 0
	p.st.HaveBest = false
	p.st.ScaleApp = 0
}

// metric evaluates the objective's EB metric over a sample.
func (p *PBS) metric(s tlp.Sample) float64 {
	ebs := make([]float64, len(s.Apps))
	for i := range s.Apps {
		ebs[i] = s.Apps[i].EB
	}
	var scale []float64
	if p.Objective != metrics.ObjWS && p.Scaling != NoScale {
		scale = p.st.Scale
	}
	return p.Objective.EBMetric(ebs, scale)
}

// record stores one probed combination's averaged EBs in the bounded
// hardware sampling table.
func (p *PBS) record(ebs []float64) {
	e := TableEntry{TLP: make([]int, p.st.NumApps), EB: make([]float64, p.st.NumApps)}
	for i := 0; i < p.st.NumApps && i < len(ebs); i++ {
		e.TLP[i] = config.ClampToLevel(p.st.Cur.TLP[i])
		e.EB[i] = ebs[i]
	}
	if len(p.st.Table) >= tableSize {
		copy(p.st.Table, p.st.Table[1:])
		p.st.Table = p.st.Table[:tableSize-1]
	}
	p.st.Table = append(p.st.Table, e)
}

// Table returns a copy of the sampling table contents.
func (p *PBS) Table() []TableEntry {
	out := make([]TableEntry, len(p.st.Table))
	copy(out, p.st.Table)
	return out
}

// Searches returns how many full searches have completed.
func (p *PBS) Searches() uint64 { return p.st.Searches }

// Restarts returns how many kernel-relaunch restarts occurred.
func (p *PBS) Restarts() uint64 { return p.st.Restarts }

// Drifts returns how many drift-triggered re-searches occurred (only
// non-zero when DriftThreshold is enabled).
func (p *PBS) Drifts() uint64 { return p.st.Drifts }

// Phase returns the current phase name (tracing/tests).
func (p *PBS) Phase() string { return p.st.Phase.String() }

// Searching reports whether PBS is currently exploring (the shaded
// sampling periods of Fig. 11).
func (p *PBS) Searching() bool { return p.st.Phase != phStable }

// OnSample implements tlp.Manager: one step of the search state machine.
func (p *PBS) OnSample(s tlp.Sample) tlp.Decision {
	if p.st.NumApps != len(s.Apps) {
		p.Initial(len(s.Apps))
	}

	// A kernel relaunch restarts the search (Section V-E). Thanks to the
	// pattern property, most restarts only re-tune; full sweeps re-run
	// every FullSearchEvery-th relaunch.
	for i := range s.Apps {
		if s.Apps[i].KernelRelaunched && p.st.Phase == phStable {
			p.st.Restarts++
			if p.st.Searches > 0 && p.st.Critical >= 0 && p.st.SinceFull+1 < max(1, p.FullSearchEvery) {
				p.st.SinceFull++
				p.startQuickTune()
			} else {
				p.st.SinceFull = 0
				p.startSweeps()
			}
			return p.st.Cur.Clone()
		}
	}

	if p.st.Settle > 0 {
		p.st.Settle--
		return p.st.Cur.Clone()
	}

	// Accumulate this window into the current observation; act only once
	// MeasureWindows windows have been averaged.
	p.accumulate(s)
	if p.st.AccN < max(1, p.MeasureWindows) {
		return p.st.Cur.Clone()
	}
	m, ebs, d, sum := p.takeMeasurement()
	if p.st.Phase != phStable {
		// One sampling-table row per probed combination (Fig. 8).
		p.record(ebs)
	}

	switch p.st.Phase {
	case phInit:
		// Utilization established at maxTLP (Guideline-1); run the sweeps.
		// Sampled alone-EB scaling, when needed, happens after the sweeps
		// so each application can be measured at its own inflection TLP
		// (the online stand-in for "alone at bestTLP", Section IV).
		p.startSweeps()

	case phScale:
		// The windows just measured app st.ScaleApp at its inflection cap
		// with every co-runner at TLP 1 (least interference): its EB
		// approximates the alone EB at bestTLP.
		if p.st.Scale == nil {
			p.st.Scale = make([]float64, p.st.NumApps)
		}
		p.st.Scale[p.st.ScaleApp] = ebs[p.st.ScaleApp]
		p.st.ScaleApp++
		if p.st.ScaleApp < p.st.NumApps {
			p.applyScaleCombo()
		} else {
			p.finishSweeps()
		}

	case phSweep:
		p.st.SweepM[p.st.SweepApp][p.st.SweepIdx] = m
		p.st.OwnEB[p.st.SweepApp][p.st.SweepIdx] = ebs[p.st.SweepApp]
		if p.fiMode() {
			p.st.SweepRawA[p.st.SweepApp][p.st.SweepIdx] = ebs[0]
			p.st.SweepRawB[p.st.SweepApp][p.st.SweepIdx] = ebs[1]
		}
		p.st.SweepIdx++
		if p.st.SweepIdx >= len(p.SweepLevels) {
			p.st.SweepIdx = 0
			p.st.SweepApp++
		}
		if p.st.SweepApp < p.st.NumApps {
			p.applySweepCombo()
		} else {
			p.computeCaps()
			if p.fiMode() && p.Scaling == SampledScale {
				// Measure the alone-EB scaling factors before analyzing.
				p.st.Phase = phScale
				p.st.ScaleApp = 0
				p.applyScaleCombo()
			} else {
				p.finishSweeps()
			}
		}

	case phTune:
		if p.fiMode() {
			p.tuneStepFI(d, sum)
		} else {
			p.tuneStep(m)
		}

	case phStable:
		// Hold, optionally watching for interference drift (the paper
		// restarts only on kernel relaunch; DriftThreshold extends that).
		if p.DriftThreshold > 0 {
			if p.st.StableM == 0 {
				p.st.StableM = m
			}
			if m < p.DriftThreshold*p.st.StableM {
				p.st.DriftCount++
				if p.st.DriftCount >= max(1, p.DriftWindows) {
					p.st.Drifts++
					p.startSweeps()
				}
			} else {
				p.st.DriftCount = 0
				// Track slow improvement so the reference stays honest.
				if m > p.st.StableM {
					p.st.StableM = m
				}
			}
		}
	}
	return p.st.Cur.Clone()
}

// resetAcc clears the measurement accumulator.
func (p *PBS) resetAcc() {
	p.st.AccN = 0
	p.st.AccM = 0
	p.st.AccD = 0
	p.st.AccSum = 0
	if p.st.AccEB == nil || len(p.st.AccEB) != p.st.NumApps {
		p.st.AccEB = make([]float64, p.st.NumApps)
	} else {
		for i := range p.st.AccEB {
			p.st.AccEB[i] = 0
		}
	}
}

// accumulate folds one window into the current observation.
func (p *PBS) accumulate(s tlp.Sample) {
	if p.st.AccEB == nil || len(p.st.AccEB) != p.st.NumApps {
		p.resetAcc()
	}
	p.st.AccM += p.metric(s)
	for i := range s.Apps {
		p.st.AccEB[i] += s.Apps[i].EB
	}
	if p.fiMode() {
		d, sum := p.scaledDiff(s)
		p.st.AccD += d
		p.st.AccSum += sum
	}
	p.st.AccN++
}

// takeMeasurement returns the averaged observation and resets the
// accumulator.
func (p *PBS) takeMeasurement() (m float64, ebs []float64, d, sum float64) {
	n := float64(p.st.AccN)
	m = p.st.AccM / n
	ebs = make([]float64, p.st.NumApps)
	for i := range ebs {
		ebs[i] = p.st.AccEB[i] / n
	}
	d = p.st.AccD / n
	sum = p.st.AccSum / n
	p.resetAcc()
	return
}

// applyScaleCombo runs app st.ScaleApp at its own inflection cap (the online
// approximation of bestTLP) with all co-runners throttled to TLP 1, the
// least-interference configuration the paper prescribes for approximating
// alone EB.
func (p *PBS) applyScaleCombo() {
	own := config.MaxTLP
	if p.st.OwnEB != nil {
		// The app's own-EB peak during its sweep approximates bestTLP.
		_, am := dropAndArgmax(p.st.OwnEB[p.st.ScaleApp])
		own = p.SweepLevels[am]
	}
	for i := range p.st.Cur.TLP {
		if i == p.st.ScaleApp {
			p.st.Cur.TLP[i] = own
		} else {
			p.st.Cur.TLP[i] = 1
		}
	}
	p.st.Settle = p.SettleWindows
}

func (p *PBS) startSweeps() {
	p.resetSearch()
	p.st.Phase = phSweep
	p.applySweepCombo()
}

// startQuickTune re-enters the tuning phase reusing the previous search's
// critical application, inflection pin, caps, and tune order.
func (p *PBS) startQuickTune() {
	for i := range p.st.Cur.TLP {
		if i == p.st.Critical {
			p.st.Cur.TLP[i] = p.st.FixedTLP
		} else {
			p.st.Cur.TLP[i] = p.st.CapLevel[i]
		}
	}
	p.st.Phase = phTune
	p.st.TuneAppIdx = 0
	p.st.TuneLvlIdx = 0
	p.st.TuneMiss = 0
	p.st.HaveBest = false
	p.st.TuneDiffs = p.st.TuneDiffs[:0]
	p.st.TuneSums = p.st.TuneSums[:0]
	p.resetAcc()
	p.st.StableM = 0
	p.st.DriftCount = 0
	p.st.Settle = p.SettleWindows
}

// applySweepCombo sets sweepApp to SweepLevels[sweepIdx] and everyone else
// to maxTLP.
func (p *PBS) applySweepCombo() {
	for i := range p.st.Cur.TLP {
		if i == p.st.SweepApp {
			p.st.Cur.TLP[i] = p.SweepLevels[p.st.SweepIdx]
		} else {
			p.st.Cur.TLP[i] = config.MaxTLP
		}
	}
	p.st.Settle = p.SettleWindows
}

// fiMode reports whether the paper's pairwise EB-difference procedure
// (Section V-C, Fig. 7) drives the search instead of the generic metric
// climb. It applies to two-application workloads optimizing FI.
func (p *PBS) fiMode() bool {
	return p.Objective == metrics.ObjFI && p.st.NumApps == 2
}

// scaledDiff returns the scaled EB-difference (app0 - app1) and the scaled
// EB sum for a sample. A low |difference| means a balanced (fair) system;
// the sum guards against "fair but dead" points where both applications
// are starved.
func (p *PBS) scaledDiff(s tlp.Sample) (diff, sum float64) {
	e0, e1 := s.Apps[0].EB, s.Apps[1].EB
	if p.st.Scale != nil && len(p.st.Scale) >= 2 {
		if p.st.Scale[0] > 0 {
			e0 /= p.st.Scale[0]
		}
		if p.st.Scale[1] > 0 {
			e1 /= p.st.Scale[1]
		}
	}
	return e0 - e1, e0 + e1
}

// chooseByDiff picks the index whose EB-difference is "near zero" in the
// paper's sense: prefer an actual sign crossing (the balance point the
// Fig. 7 curves pass through); among crossings take the endpoint with the
// smaller |diff|. Without a crossing, take the smallest |diff| among
// levels that are healthy (scaled EB sum at least healthyFrac of the
// maximum seen), so mutual-starvation points do not masquerade as fair.
func chooseByDiff(diffs, sums []float64) int {
	const healthyFrac = 0.4
	best := -1
	for i := 0; i+1 < len(diffs); i++ {
		if (diffs[i] <= 0) == (diffs[i+1] <= 0) {
			continue
		}
		cand := i
		if abs(diffs[i+1]) < abs(diffs[i]) {
			cand = i + 1
		}
		if best == -1 || abs(diffs[cand]) < abs(diffs[best]) {
			best = cand
		}
	}
	if best >= 0 {
		return best
	}
	maxSum := 0.0
	for _, s := range sums {
		if s > maxSum {
			maxSum = s
		}
	}
	for i, d := range diffs {
		if sums[i] < healthyFrac*maxSum {
			continue
		}
		if best == -1 || abs(d) < abs(diffs[best]) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	// Degenerate: everything unhealthy; fall back to global argmin.
	best = 0
	for i := range diffs {
		if abs(diffs[i]) < abs(diffs[best]) {
			best = i
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// curveRange returns max-min of a curve (the paper's "larger changes in
// EB-difference" criticality test).
func curveRange(m []float64) float64 {
	if len(m) == 0 {
		return 0
	}
	lo, hi := m[0], m[0]
	for _, v := range m {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// computeCaps derives the Guideline-2 TLP caps: an application's own-EB
// curve caps the TLP it may be given — past its inflection the
// application overwhelms resources and its EB collapses. The cap only
// excludes levels where the app's own EB has fallen far below its peak,
// so noisy-flat curves (an app crushed by the pinned co-runner) impose no
// cap.
func (p *PBS) computeCaps() {
	p.st.CapLevel = make([]int, p.st.NumApps)
	for app := 0; app < p.st.NumApps; app++ {
		p.st.CapLevel[app] = capByCollapse(p.st.OwnEB[app], p.SweepLevels)
	}
}

// finishSweeps identifies the critical application and its inflection
// point, fixes it, and begins tuning the others.
func (p *PBS) finishSweeps() {
	if p.st.CapLevel == nil {
		p.computeCaps()
	}

	if p.fiMode() {
		// Derive the scaled difference curves from the raw sweep EBs and
		// the (possibly just-sampled) scaling factors.
		for app := 0; app < p.st.NumApps; app++ {
			for li := range p.SweepLevels {
				e0, e1 := p.st.SweepRawA[app][li], p.st.SweepRawB[app][li]
				if p.st.Scale != nil && len(p.st.Scale) >= 2 {
					if p.st.Scale[0] > 0 {
						e0 /= p.st.Scale[0]
					}
					if p.st.Scale[1] > 0 {
						e1 /= p.st.Scale[1]
					}
				}
				p.st.SweepD[app][li] = e0 - e1
				p.st.SweepSum[app][li] = e0 + e1
			}
		}
		// Section V-C: the application inducing larger changes in the
		// EB-difference is critical; fix it where the difference is near
		// zero (the balance crossing).
		if curveRange(p.st.SweepD[0]) >= curveRange(p.st.SweepD[1]) {
			p.st.Critical = 0
		} else {
			p.st.Critical = 1
		}
		idx := chooseByDiff(p.st.SweepD[p.st.Critical], p.st.SweepSum[p.st.Critical])
		p.st.FixedTLP = p.SweepLevels[idx]
	} else {
		bestDrop := -1.0
		for app := 0; app < p.st.NumApps; app++ {
			drop, _ := dropAndArgmax(p.st.SweepM[app])
			if drop > bestDrop {
				bestDrop = drop
				p.st.Critical = app
			}
		}
		_, argmax := dropAndArgmax(p.st.SweepM[p.st.Critical])
		p.st.FixedTLP = p.SweepLevels[argmax]
	}
	if p.st.FixedTLP > p.st.CapLevel[p.st.Critical] {
		p.st.FixedTLP = p.st.CapLevel[p.st.Critical]
	}

	// Tune the remaining apps in order of decreasing sweep drop (most
	// disruptive first).
	for app := 0; app < p.st.NumApps; app++ {
		if app != p.st.Critical {
			p.st.TuneOrder = append(p.st.TuneOrder, app)
		}
	}
	sort.SliceStable(p.st.TuneOrder, func(i, j int) bool {
		di, _ := dropAndArgmax(p.st.SweepM[p.st.TuneOrder[i]])
		dj, _ := dropAndArgmax(p.st.SweepM[p.st.TuneOrder[j]])
		return di > dj
	})

	for i := range p.st.Cur.TLP {
		if i == p.st.Critical {
			p.st.Cur.TLP[i] = p.st.FixedTLP
		} else {
			p.st.Cur.TLP[i] = p.st.CapLevel[i]
		}
	}
	p.st.Phase = phTune
	p.st.TuneAppIdx = 0
	p.st.TuneLvlIdx = 0
	p.st.TuneMiss = 0
	p.st.HaveBest = false
	p.st.Settle = p.SettleWindows
}

// tuneLevelsFor returns the descending candidate levels for tuning app,
// excluding levels past the app's Guideline-2 inflection cap.
func (p *PBS) tuneLevelsFor(app int) []int {
	cap := config.MaxTLP
	if p.st.CapLevel != nil {
		cap = p.st.CapLevel[app]
	}
	var lv []int
	for _, l := range p.SweepLevels {
		if l <= cap {
			lv = append(lv, l)
		}
	}
	if len(lv) == 0 {
		lv = []int{p.SweepLevels[0]}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lv)))
	return lv
}

// tuneStep consumes the measurement of the current tuning combination and
// either advances to the next level, the next app, or stabilizes.
func (p *PBS) tuneStep(m float64) {
	app := p.st.TuneOrder[p.st.TuneAppIdx]
	levels := p.tuneLevelsFor(app)

	if !p.st.HaveBest || m > p.st.TuneBestM {
		p.st.TuneBestM = m
		p.st.TuneBestT = levels[p.st.TuneLvlIdx]
		p.st.TuneMiss = 0
		p.st.HaveBest = true
	} else {
		p.st.TuneMiss++
	}
	p.st.TuneLvlIdx++
	if p.st.TuneLvlIdx < len(levels) && p.st.TuneMiss < p.TunePatience {
		p.st.Cur.TLP[app] = levels[p.st.TuneLvlIdx]
		p.st.Settle = p.SettleWindows
		return
	}

	// Done with this app: revert to its best level and move on.
	p.st.Cur.TLP[app] = p.st.TuneBestT
	p.st.TuneAppIdx++
	if p.st.TuneAppIdx < len(p.st.TuneOrder) {
		next := p.st.TuneOrder[p.st.TuneAppIdx]
		p.st.TuneLvlIdx = 0
		p.st.TuneMiss = 0
		p.st.HaveBest = false
		p.st.Cur.TLP[next] = p.tuneLevelsFor(next)[0]
		p.st.Settle = p.SettleWindows
		return
	}
	p.st.Phase = phStable
	p.st.Searches++
	p.st.Settle = p.SettleWindows
}

// tuneStepFI runs the FI tuning scan: the non-critical application visits
// every capped level (descending) while the EB-difference is recorded;
// the level nearest the balance crossing wins (Fig. 7b: "searching is
// stopped when the lowest absolute EB-difference is found").
func (p *PBS) tuneStepFI(d, sum float64) {
	app := p.st.TuneOrder[p.st.TuneAppIdx]
	levels := p.tuneLevelsFor(app)

	p.st.TuneDiffs = append(p.st.TuneDiffs, d)
	p.st.TuneSums = append(p.st.TuneSums, sum)

	p.st.TuneLvlIdx++
	if p.st.TuneLvlIdx < len(levels) {
		p.st.Cur.TLP[app] = levels[p.st.TuneLvlIdx]
		p.st.Settle = p.SettleWindows
		return
	}
	pick := chooseByDiff(p.st.TuneDiffs, p.st.TuneSums)
	p.st.Cur.TLP[app] = levels[pick]
	p.st.TuneAppIdx++
	if p.st.TuneAppIdx < len(p.st.TuneOrder) {
		next := p.st.TuneOrder[p.st.TuneAppIdx]
		p.st.TuneLvlIdx = 0
		p.st.TuneDiffs = p.st.TuneDiffs[:0]
		p.st.TuneSums = p.st.TuneSums[:0]
		p.st.Cur.TLP[next] = p.tuneLevelsFor(next)[0]
		p.st.Settle = p.SettleWindows
		return
	}
	p.st.Phase = phStable
	p.st.Searches++
	p.st.Settle = p.SettleWindows
}

// collapseFrac is the fraction of an application's peak own-EB below
// which a TLP level counts as past the inflection (Guideline-2).
const collapseFrac = 0.6

// capByCollapse returns the largest level whose own-EB retains at least
// collapseFrac of the curve's peak. Flat or rising curves return the top
// level (no cap).
func capByCollapse(curve []float64, levels []int) int {
	if len(curve) == 0 {
		return levels[len(levels)-1]
	}
	peak := curve[0]
	for _, v := range curve {
		if v > peak {
			peak = v
		}
	}
	for i := len(curve) - 1; i >= 0; i-- {
		if curve[i] >= collapseFrac*peak {
			return levels[i]
		}
	}
	return levels[0]
}

// dropAndArgmax returns the magnitude of the sharpest post-peak decline
// in the metric curve and the index of the curve's maximum (the inflection
// point).
func dropAndArgmax(m []float64) (drop float64, argmax int) {
	if len(m) == 0 {
		return 0, 0
	}
	maxV := m[0]
	for i, v := range m {
		if v > maxV {
			maxV = v
			argmax = i
		}
	}
	minAfter := maxV
	for _, v := range m[argmax:] {
		if v < minAfter {
			minAfter = v
		}
	}
	return maxV - minAfter, argmax
}
