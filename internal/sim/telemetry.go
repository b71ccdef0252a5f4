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
// manager. With DesignatedSampling it reads one core and one partition per
// application exactly as the paper's hardware does (Fig. 8); otherwise it
// aggregates machine-wide.
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
	peakWinBytesAll := s.cfg.PeakBandwidthBytesPerMemCycle() * memCyclesWin
	peakWinBytesOne := float64(s.cfg.BusWidthBytes) * memCyclesWin

	totalBW := 0.0
	for app := 0; app < numApps; app++ {
		as := &sample.Apps[app]
		as.App = app
		as.TLP = s.CurrentTLP(app)
		as.Bypass = s.cores[s.appCores[app][0]].BypassL1()
		as.Cycles = windowCycles

		var insts, issued, idle, memStall uint64
		var l1Acc, l1Miss, vtaHits uint64
		if s.opts.DesignatedSampling {
			dc := s.cores[s.appCores[app][0]]
			l1Acc = dc.L1.Stats[app].Accesses.Window()
			l1Miss = dc.L1.Stats[app].Misses.Window()
			if dc.L1.VictimTagsEnabled() {
				vtaHits = dc.L1.VTAHits[app].Window()
			}
		}
		for _, ci := range s.appCores[app] {
			c := s.cores[ci]
			insts += c.Stats.InstRetired.Window()
			issued += c.Stats.IssuedSlots.Window()
			idle += c.Stats.IdleCycles.Window()
			memStall += c.Stats.MemStall.Window()
			if !s.opts.DesignatedSampling {
				l1Acc += c.L1.Stats[app].Accesses.Window()
				l1Miss += c.L1.Stats[app].Misses.Window()
				if c.L1.VictimTagsEnabled() {
					vtaHits += c.L1.VTAHits[app].Window()
				}
			}
		}
		as.Insts = insts
		as.IPC = float64(insts) / float64(windowCycles)
		nc := float64(len(s.appCores[app]))
		as.IssueUtil = float64(issued) / (float64(windowCycles) * nc * float64(s.cfg.SchedulersPerCore))
		as.MemStallFrac = float64(memStall) / (float64(windowCycles) * nc)

		var l2Acc, l2Miss, bwBytes uint64
		if s.opts.DesignatedSampling {
			p := s.partitions[0]
			l2Acc = p.L2.Stats[app].Accesses.Window()
			l2Miss = p.L2.Stats[app].Misses.Window()
			bwBytes = p.Apps[app].BWBytes.Window()
		} else {
			for _, p := range s.partitions {
				l2Acc += p.L2.Stats[app].Accesses.Window()
				l2Miss += p.L2.Stats[app].Misses.Window()
				bwBytes += p.Apps[app].BWBytes.Window()
			}
		}

		if l1Miss > 0 {
			as.VTARate = float64(vtaHits) / float64(l1Miss)
		}
		as.L1MR = rate(l1Miss, l1Acc)
		as.L2MR = rate(l2Miss, l2Acc)
		as.CMR = as.L1MR * as.L2MR
		if s.opts.DesignatedSampling {
			as.BW = float64(bwBytes) / peakWinBytesOne
		} else {
			as.BW = float64(bwBytes) / peakWinBytesAll
		}
		as.EB = eb(as.BW, as.CMR)
		totalBW += as.BW

		// Kernel relaunch detection at app granularity.
		kp := &s.opts.Apps[app]
		if kp.KernelInsts > 0 {
			totalInsts := s.appTotalInsts(app)
			for totalInsts-s.instAtLaunch[app] >= kp.KernelInsts {
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
				// instruction, so a quiet core's next Tick may differ.
				for _, ci := range s.appCores[app] {
					s.wakeQuiet(ci, cycle)
				}
			}
		}
	}
	sample.TotalBW = totalBW
	return sample
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

func (s *Simulator) appTotalInsts(app int) uint64 {
	var t uint64
	for _, ci := range s.appCores[app] {
		t += s.cores[ci].Stats.InstRetired.Total()
	}
	return t
}

// newWindow rolls every windowed counter in the machine.
func (s *Simulator) newWindow() {
	for _, c := range s.cores {
		c.NewWindow()
	}
	for _, p := range s.partitions {
		p.NewWindow()
	}
}

// snapshot captures per-app lifetime totals (for warmup subtraction).
func (s *Simulator) snapshot() []appSnapshot {
	return s.snapshotInto(nil)
}

// snapshotInto fills dst (grown if needed) with per-app lifetime totals,
// settling quiet cores' spans and skipped partition retries first so
// Total() reads are exact.
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
	for i := range snaps {
		snaps[i] = appSnapshot{}
	}
	for app := 0; app < numApps; app++ {
		sn := &snaps[app]
		for _, ci := range s.appCores[app] {
			c := s.cores[ci]
			sn.Insts += c.Stats.InstRetired.Total()
			sn.L1Acc += c.L1.Stats[app].Accesses.Total()
			sn.L1Miss += c.L1.Stats[app].Misses.Total()
			sn.Idle += c.Stats.IdleCycles.Total()
			sn.MemStall += c.Stats.MemStall.Total()
			sn.Issued += c.Stats.IssuedSlots.Total()
		}
		for _, p := range s.partitions {
			sn.L2Acc += p.L2.Stats[app].Accesses.Total()
			sn.L2Miss += p.L2.Stats[app].Misses.Total()
			sn.BWBytes += p.Apps[app].BWBytes.Total()
			sn.RowHits += p.Apps[app].RowHits.Total()
			sn.RowMiss += p.Apps[app].RowMisses.Total()
			sn.LatSum += p.Apps[app].LatencySum.Total()
			sn.Reads += p.Apps[app].DRAMReads.Total()
		}
		sn.Cycles = s.cycle
		sn.MemCycles = s.memCycle
		sn.Kernels = s.kernels[app]
		sn.TLPWeighted = s.tlpWeighted(app)
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

	res := Result{Cycles: measCycles, Windows: windows, Apps: make([]AppResult, len(s.opts.Apps))}
	for app := range s.opts.Apps {
		w, e := &s.warm[app], &end[app]
		a := &res.Apps[app]
		a.Name = s.opts.Apps[app].Name
		a.Insts = e.Insts - w.Insts
		a.IPC = float64(a.Insts) / float64(measCycles)
		a.L1MR = rate(e.L1Miss-w.L1Miss, e.L1Acc-w.L1Acc)
		a.L2MR = rate(e.L2Miss-w.L2Miss, e.L2Acc-w.L2Acc)
		a.CMR = a.L1MR * a.L2MR
		a.BW = float64(e.BWBytes-w.BWBytes) / peakBytes
		a.EB = eb(a.BW, a.CMR)
		rowAcc := (e.RowHits - w.RowHits) + (e.RowMiss - w.RowMiss)
		if rowAcc > 0 {
			a.RowHitRate = float64(e.RowHits-w.RowHits) / float64(rowAcc)
		}
		if reads := e.Reads - w.Reads; reads > 0 {
			a.AvgLatency = float64(e.LatSum-w.LatSum) / float64(reads)
		}
		nc := float64(len(s.appCores[app]))
		a.MemStallFrac = float64(e.MemStall-w.MemStall) / (float64(measCycles) * nc)
		a.IssueUtil = float64(e.Issued-w.Issued) / (float64(measCycles) * nc * float64(s.cfg.SchedulersPerCore))
		a.AvgTLP = (e.TLPWeighted - w.TLPWeighted) / float64(measCycles)
		a.FinalTLP = s.CurrentTLP(app)
		a.Kernels = e.Kernels - w.Kernels
		res.TotalBW += a.BW
	}
	return res
}
