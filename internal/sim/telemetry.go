package sim

import (
	"ebm/internal/tlp"
)

// cmrFloor keeps EB finite when a window carries essentially no memory
// traffic (an idle or fully cache-resident phase): the caches are modeled
// as amplifying attained bandwidth by at most 100x. The metrics package
// uses the same floor in ratio metrics.
const cmrFloor = 1e-2

// buildSample assembles the per-window telemetry handed to the TLP
// manager, from the totals accrued since the window-start record. With
// DesignatedSampling it reads one core and one partition per application
// exactly as the paper's hardware does (Fig. 8); otherwise it aggregates
// machine-wide.
func (s *Simulator) buildSample(cycle uint64) tlp.Sample {
	numApps := len(s.opts.Apps)
	// The Apps buffer is reused between windows (documented on
	// Options.OnWindow); managers and the trace recorder copy scalars.
	if cap(s.sampleApps) < numApps {
		s.sampleApps = make([]tlp.AppSample, numApps)
	}
	apps := s.sampleApps[:numApps]
	for i := range apps {
		apps[i] = tlp.AppSample{}
	}
	sample := tlp.Sample{Cycle: cycle, Apps: apps}
	windowCycles := s.opts.WindowCycles

	// Memory cycles elapsed this window (for bandwidth normalization).
	memCyclesWin := float64(windowCycles) * s.cfg.MemCyclesPerCoreCycle()
	peakWinBytes := s.cfg.PeakBandwidthBytesPerMemCycle() * memCyclesWin
	if s.opts.DesignatedSampling {
		peakWinBytes = float64(s.cfg.BusWidthBytes) * memCyclesWin
	}

	totalBW := 0.0
	for app := 0; app < numApps; app++ {
		as := &sample.Apps[app]
		as.App = app
		as.TLP = s.CurrentTLP(app)
		as.Bypass = s.cores[s.appCores[app][0]].BypassL1()
		as.Cycles = windowCycles

		cur := s.appCounters(app, s.opts.DesignatedSampling)
		d := cur.sub(&s.win.Apps[app])
		as.Insts = d.Insts
		r := s.rates(app, &d, windowCycles, peakWinBytes)
		as.IPC, as.L1MR, as.L2MR, as.CMR, as.BW, as.EB = r.IPC, r.L1MR, r.L2MR, r.CMR, r.BW, r.EB
		as.IssueUtil, as.MemStallFrac = r.IssueUtil, r.MemStallFrac
		if d.L1Miss > 0 {
			as.VTARate = float64(d.VTAHits) / float64(d.L1Miss)
		}
		totalBW += as.BW

		// Kernel relaunch detection at app granularity.
		kp := &s.opts.Apps[app]
		if kp.KernelInsts > 0 {
			for cur.Insts-s.instAtLaunch[app] >= kp.KernelInsts {
				s.instAtLaunch[app] += kp.KernelInsts
				s.kernels[app]++
				as.KernelRelaunched = true
			}
			if as.KernelRelaunched && len(s.phaseSets[app]) > 1 {
				// Rotate to the next behavioural phase.
				s.phaseIdx[app] = (s.phaseIdx[app] + 1) % len(s.phaseSets[app])
				next := s.phaseSets[app][s.phaseIdx[app]]
				for _, ws := range s.appStreams[app] {
					ws.SetPhase(next)
				}
				// A warp stalled at issue now holds a regenerated
				// instruction, so a quiet core's next Tick may differ
				// and its memo of MSHR-blocked loads is stale.
				for _, ci := range s.appCores[app] {
					s.cores[ci].PhaseSwitched()
					s.wakeQuiet(ci, cycle)
				}
			}
		}
	}
	sample.TotalBW = totalBW
	return sample
}

// appRates are an application's rate metrics over an interval: a
// sampling window for the TLP manager, or the measured run for Result.
type appRates struct {
	IPC, L1MR, L2MR, CMR, BW, EB float64
	IssueUtil, MemStallFrac      float64
}

// rates computes app's rate metrics from the totals d accrued over an
// interval of cycles; peakBytes, the interval's peak DRAM transfer,
// normalises the bandwidth.
func (s *Simulator) rates(app int, d *appSnapshot, cycles uint64, peakBytes float64) appRates {
	nc := float64(len(s.appCores[app]))
	r := appRates{
		IPC:          float64(d.Insts) / float64(cycles),
		L1MR:         rate(d.L1Miss, d.L1Acc),
		L2MR:         rate(d.L2Miss, d.L2Acc),
		BW:           float64(d.BWBytes) / peakBytes,
		IssueUtil:    float64(d.Issued) / (float64(cycles) * nc * float64(s.cfg.SchedulersPerCore)),
		MemStallFrac: float64(d.MemStall) / (float64(cycles) * nc),
	}
	r.CMR = r.L1MR * r.L2MR
	r.EB = eb(r.BW, r.CMR)
	return r
}

// rate returns misses/accesses with the idle-window convention of 1.0.
func rate(miss, acc uint64) float64 {
	if acc == 0 {
		return 1
	}
	return float64(miss) / float64(acc)
}

// eb computes effective bandwidth BW/CMR with the CMR floored away from
// zero so idle windows do not explode.
func eb(bw, cmr float64) float64 {
	if cmr < cmrFloor {
		cmr = cmrFloor
	}
	return bw / cmr
}

// appCounters sums app's lifetime counters over its cores and every
// partition. With designated, the L1 counters come from the app's first
// core only and the L2 and bandwidth counters from partition 0 only, the
// units the paper's sampling hardware reads. Callers settle skipped spans
// first so the sums are exact.
func (s *Simulator) appCounters(app int, designated bool) appSnapshot {
	var sn appSnapshot
	for i, ci := range s.appCores[app] {
		c := s.cores[ci]
		sn.Insts += c.Stats.InstRetired
		sn.MemStall += c.Stats.MemStall
		sn.Issued += c.Stats.IssuedSlots
		if i == 0 || !designated {
			sn.L1Acc += c.L1.Stats[app].Accesses
			sn.L1Miss += c.L1.Stats[app].Misses
			if c.L1.VictimTagsEnabled() {
				sn.VTAHits += c.L1.VTAHits[app]
			}
		}
	}
	for pi, p := range s.partitions {
		if pi == 0 || !designated {
			sn.L2Acc += p.L2.Stats[app].Accesses
			sn.L2Miss += p.L2.Stats[app].Misses
			sn.BWBytes += p.Apps[app].BWBytes
		}
		a := &p.Apps[app]
		sn.RowHits += a.RowHits
		sn.RowMiss += a.RowMisses
		sn.LatSum += a.LatencySum
		sn.Reads += a.DRAMReads
	}
	return sn
}

// sub returns the counts e accrued since w, an earlier snapshot.
func (e *appSnapshot) sub(w *appSnapshot) appSnapshot {
	return appSnapshot{
		Insts:       e.Insts - w.Insts,
		L1Acc:       e.L1Acc - w.L1Acc,
		L1Miss:      e.L1Miss - w.L1Miss,
		VTAHits:     e.VTAHits - w.VTAHits,
		L2Acc:       e.L2Acc - w.L2Acc,
		L2Miss:      e.L2Miss - w.L2Miss,
		BWBytes:     e.BWBytes - w.BWBytes,
		RowHits:     e.RowHits - w.RowHits,
		RowMiss:     e.RowMiss - w.RowMiss,
		LatSum:      e.LatSum - w.LatSum,
		Reads:       e.Reads - w.Reads,
		MemStall:    e.MemStall - w.MemStall,
		Issued:      e.Issued - w.Issued,
		MemCycles:   e.MemCycles - w.MemCycles,
		TLPWeighted: e.TLPWeighted - w.TLPWeighted,
		Kernels:     e.Kernels - w.Kernels,
	}
}

// startWindow captures the record the next sampling window's telemetry
// differences from. It runs at the window boundary after the sample has
// been built and observed, with every skipped span settled.
func (s *Simulator) startWindow() {
	for app := range s.win.Apps {
		s.win.Apps[app] = s.appCounters(app, s.opts.DesignatedSampling)
	}
	for pi, p := range s.partitions {
		s.win.BusBusy[pi] = p.BusBusy
	}
}

// snapshot captures per-app lifetime totals (for warmup subtraction).
func (s *Simulator) snapshot() []appSnapshot {
	return s.snapshotInto(nil)
}

// snapshotInto fills dst (grown if needed) with per-app lifetime totals,
// settling quiet cores' spans and skipped partition retries first so the
// counter reads are exact.
func (s *Simulator) snapshotInto(dst []appSnapshot) []appSnapshot {
	for _, c := range s.cores {
		c.Settle(s.cycle)
	}
	for _, p := range s.partitions {
		p.Settle(s.memCycle)
	}
	numApps := len(s.opts.Apps)
	if cap(dst) < numApps {
		dst = make([]appSnapshot, numApps)
	}
	snaps := dst[:numApps]
	for app := range snaps {
		sn := s.appCounters(app, false)
		sn.MemCycles = s.memCycle
		sn.Kernels = s.kernels[app]
		sn.TLPWeighted = s.tlpWeighted(app)
		snaps[app] = sn
	}
	return snaps
}

// tlpWeighted: cumulative sum of TLP over cycles; the simulator updates
// tlpAccum lazily whenever the TLP changes or is read.
func (s *Simulator) tlpWeighted(app int) float64 {
	s.flushTLPAccum()
	return s.tlpAccum[app]
}

// result assembles the measured metrics over [warmup, total).
func (s *Simulator) result(windows uint64) Result {
	if s.warm == nil {
		// Warmup 0: subtract a zero snapshot.
		s.warm = make([]appSnapshot, len(s.opts.Apps))
	}
	end := s.snapshotInto(s.accum)
	s.accum = end
	measCycles := s.cycle - s.opts.WarmupCycles
	memCycles := float64(end[0].MemCycles - s.warm[0].MemCycles)
	peakBytes := s.cfg.PeakBandwidthBytesPerMemCycle() * memCycles

	res := Result{Cycles: measCycles, Windows: windows, Apps: make([]AppResult, len(s.opts.Apps)), Decisions: s.decisions()}
	for app := range s.opts.Apps {
		d := end[app].sub(&s.warm[app])
		r := s.rates(app, &d, measCycles, peakBytes)
		a := &res.Apps[app]
		a.Name = s.opts.Apps[app].Name
		a.Insts = d.Insts
		a.IPC, a.L1MR, a.L2MR, a.CMR, a.BW, a.EB = r.IPC, r.L1MR, r.L2MR, r.CMR, r.BW, r.EB
		a.IssueUtil, a.MemStallFrac = r.IssueUtil, r.MemStallFrac
		if rowAcc := d.RowHits + d.RowMiss; rowAcc > 0 {
			a.RowHitRate = float64(d.RowHits) / float64(rowAcc)
		}
		if d.Reads > 0 {
			a.AvgLatency = float64(d.LatSum) / float64(d.Reads)
		}
		a.AvgTLP = d.TLPWeighted / float64(measCycles)
		a.FinalTLP = s.CurrentTLP(app)
		a.Kernels = d.Kernels
		res.TotalBW += a.BW
	}
	return res
}
