package sim

import (
	"fmt"

	"ebm/internal/obs"
	"ebm/internal/tlp"
)

// simObs is the engine side of the observability subsystem: it owns the
// pre-registered metric handles and publishes into the observer's sinks
// at window/decision granularity — never on the per-cycle path. All
// handle methods are nil-safe, so a journal-only or metrics-only observer
// needs no per-metric branching here; a fully nil observer is never
// constructed (Simulator.obsw stays nil and Run branches on that).
type simObs struct {
	o *obs.Observer
	j *obs.Journal // shortcut for s.o.Journal (may be nil)

	appTLP, appEB, appBW, appCMR, appIPC []*obs.Gauge
	appL1MR, appL2MR, appStall, appUtil  []*obs.Gauge
	appInsts, appKernels                 []*obs.Counter

	cycleG, memCycleG, totalBW *obs.Gauge
	windows                    *obs.Counter

	rowHits, rowMisses, dramReads, dramWrites, dramBytes, refreshes *obs.Counter
	mshrStallL1, mshrStallL2                                        *obs.Counter
	mshrOccL1, mshrOccL2                                            *obs.Gauge

	poolGets, poolAllocs, poolRecycles *obs.Counter
	poolFree, poolHit                  *obs.Gauge

	partQ, partIn, partBus      []*obs.Gauge   // per partition
	coreIdle, coreStall, coreFF []*obs.Counter // per core

	ebHist, latHist *obs.Histogram

	lastPhase string
}

// newSimObs wires the simulator to an observer, registering the full
// metric catalogue (DESIGN.md §7) when a registry is attached. Returns
// nil when the observer has no live sink, which disables all publishing.
func newSimObs(s *Simulator, o *obs.Observer) *simObs {
	if !o.Enabled() {
		return nil
	}
	w := &simObs{o: o, j: o.Journal}
	numApps := len(s.opts.Apps)
	// The handle slices are always allocated: with no registry their
	// entries stay nil and every Set/Observe no-ops (nil-safe handles), so
	// a journal-only observer walks the same publish path.
	w.appTLP = make([]*obs.Gauge, numApps)
	w.appEB = make([]*obs.Gauge, numApps)
	w.appBW = make([]*obs.Gauge, numApps)
	w.appCMR = make([]*obs.Gauge, numApps)
	w.appIPC = make([]*obs.Gauge, numApps)
	w.appL1MR = make([]*obs.Gauge, numApps)
	w.appL2MR = make([]*obs.Gauge, numApps)
	w.appStall = make([]*obs.Gauge, numApps)
	w.appUtil = make([]*obs.Gauge, numApps)
	w.appInsts = make([]*obs.Counter, numApps)
	w.appKernels = make([]*obs.Counter, numApps)
	if r := o.Metrics; r != nil {
		for app := 0; app < numApps; app++ {
			ls := []obs.Label{obs.L("app", fmt.Sprint(app)), obs.L("name", s.opts.Apps[app].Name)}
			w.appTLP[app] = r.Gauge("ebm_app_tlp", "TLP limit in effect at the end of the window", ls...)
			w.appEB[app] = r.Gauge("ebm_app_eb", "per-window effective bandwidth BW/CMR", ls...)
			w.appBW[app] = r.Gauge("ebm_app_bw", "per-window attained DRAM bandwidth, fraction of peak", ls...)
			w.appCMR[app] = r.Gauge("ebm_app_cmr", "per-window compound miss rate L1MR*L2MR", ls...)
			w.appIPC[app] = r.Gauge("ebm_app_ipc", "per-window instructions per cycle", ls...)
			w.appL1MR[app] = r.Gauge("ebm_app_l1_miss_rate", "per-window L1 miss rate", ls...)
			w.appL2MR[app] = r.Gauge("ebm_app_l2_miss_rate", "per-window L2 miss rate", ls...)
			w.appStall[app] = r.Gauge("ebm_app_mem_stall_frac", "fraction of window cycles idle on memory", ls...)
			w.appUtil[app] = r.Gauge("ebm_app_issue_util", "fraction of issue slots used in the window", ls...)
			w.appInsts[app] = r.Counter("ebm_app_insts_total", "lifetime retired warp instructions", ls...)
			w.appKernels[app] = r.Counter("ebm_app_kernels_total", "kernel launches completed", ls...)
		}
		w.cycleG = r.Gauge("ebm_cycle", "current core cycle")
		w.memCycleG = r.Gauge("ebm_mem_cycle", "current memory cycle")
		w.totalBW = r.Gauge("ebm_total_bw", "machine attained bandwidth in the last window, fraction of peak")
		w.windows = r.Counter("ebm_windows_total", "completed sampling windows")
		w.rowHits = r.Counter("ebm_dram_row_hits_total", "DRAM row-buffer hits")
		w.rowMisses = r.Counter("ebm_dram_row_misses_total", "DRAM activates (closed rows and conflicts)")
		w.dramReads = r.Counter("ebm_dram_reads_total", "DRAM read bursts")
		w.dramWrites = r.Counter("ebm_dram_writes_total", "DRAM write bursts")
		w.dramBytes = r.Counter("ebm_dram_bytes_total", "DRAM data-bus bytes transferred")
		w.refreshes = r.Counter("ebm_dram_refreshes_total", "all-bank refresh operations")
		w.mshrStallL1 = r.Counter("ebm_mshr_stall_cycles_total",
			"cycles stalled on a full MSHR file or queue", obs.L("level", "l1"))
		w.mshrStallL2 = r.Counter("ebm_mshr_stall_cycles_total",
			"cycles stalled on a full MSHR file or queue", obs.L("level", "l2"))
		w.mshrOccL1 = r.Gauge("ebm_mshr_occupancy", "distinct lines in flight", obs.L("level", "l1"))
		w.mshrOccL2 = r.Gauge("ebm_mshr_occupancy", "distinct lines in flight", obs.L("level", "l2"))
		w.poolGets = r.Counter("ebm_request_pool_gets_total", "request-pool Gets")
		w.poolAllocs = r.Counter("ebm_request_pool_heap_allocs_total", "pool Gets served by the heap")
		w.poolRecycles = r.Counter("ebm_request_pool_recycles_total", "requests returned to the pool")
		w.poolFree = r.Gauge("ebm_request_pool_free", "request-pool free-list depth")
		w.poolHit = r.Gauge("ebm_request_pool_hit_ratio", "fraction of pool Gets served by the free list")
		w.partQ = make([]*obs.Gauge, len(s.partitions))
		w.partIn = make([]*obs.Gauge, len(s.partitions))
		w.partBus = make([]*obs.Gauge, len(s.partitions))
		for i := range s.partitions {
			l := obs.L("partition", fmt.Sprint(i))
			w.partQ[i] = r.Gauge("ebm_dram_queue_depth", "FR-FCFS queue occupancy", l)
			w.partIn[i] = r.Gauge("ebm_dram_input_depth", "partition input-queue occupancy", l)
			w.partBus[i] = r.Gauge("ebm_dram_bus_utilization", "data-bus busy fraction over the last window", l)
		}
		w.coreIdle = make([]*obs.Counter, len(s.cores))
		w.coreStall = make([]*obs.Counter, len(s.cores))
		w.coreFF = make([]*obs.Counter, len(s.cores))
		for i, c := range s.cores {
			ls := []obs.Label{obs.L("core", fmt.Sprint(i)), obs.L("app", fmt.Sprint(c.App))}
			w.coreIdle[i] = r.Counter("ebm_core_idle_cycles_total", "cycles with no issuable warp", ls...)
			w.coreStall[i] = r.Counter("ebm_core_mem_stall_cycles_total", "idle cycles blocked on memory", ls...)
			w.coreFF[i] = r.Counter("ebm_core_fastforward_cycles_total", "idle cycles skipped by fast-forward", ls...)
		}
		w.ebHist = r.Histogram("ebm_window_app_eb", "distribution of per-app window EB values",
			[]float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2, 3, 5})
		w.latHist = r.Histogram("ebm_dram_window_read_latency", "per-window mean DRAM read latency in memory cycles",
			[]float64{50, 100, 200, 400, 800, 1600, 3200})
	}
	if o.PhaseFn != nil {
		w.lastPhase = o.PhaseFn()
		w.j.Record(obs.Event{Cycle: 0, Kind: obs.EvPhase, App: -1, Label: w.lastPhase})
	}
	return w
}

// decision journals a TLP-management decision as it is applied at the
// warp schedulers.
func (w *simObs) decision(d tlp.Decision, cycle uint64) {
	w.j.Record(obs.Event{Cycle: cycle, Kind: obs.EvDecision, App: -1, Label: d.String()})
}

// policyFault journals a TLP policy returning a wrong-shaped decision at
// a window boundary.
func (w *simObs) policyFault(label string, cycle uint64) {
	w.j.Record(obs.Event{Cycle: cycle, Kind: obs.EvPolicyFault, App: -1, Label: label})
}

// warmup journals the warmup boundary (measurement starts here).
func (w *simObs) warmup(cycle uint64) {
	w.j.Record(obs.Event{Cycle: cycle, Kind: obs.EvWarmup, App: -1})
}

// window publishes one completed sampling window: per-app telemetry from
// the sample the manager saw, machine-wide counters scraped from the
// engine's lifetime totals, and the journal events the CSV and Chrome
// trace exporters replay. Called once per window, before startWindow
// records the next window's start.
func (w *simObs) window(s *Simulator, sample tlp.Sample, windows uint64) {
	for i := range sample.Apps {
		a := &sample.Apps[i]
		w.appTLP[i].Set(float64(a.TLP))
		w.appEB[i].Set(a.EB)
		w.appBW[i].Set(a.BW)
		w.appCMR[i].Set(a.CMR)
		w.appIPC[i].Set(a.IPC)
		w.appL1MR[i].Set(a.L1MR)
		w.appL2MR[i].Set(a.L2MR)
		w.appStall[i].Set(a.MemStallFrac)
		w.appUtil[i].Set(a.IssueUtil)
		w.appInsts[i].Set(s.appCounters(i, false).Insts)
		w.appKernels[i].Set(s.kernels[i])
		w.ebHist.Observe(a.EB)

		w.j.Record(obs.Event{
			Cycle: sample.Cycle, Kind: obs.EvAppWindow, App: i, Window: windows,
			TLP: a.TLP, EB: a.EB, BW: a.BW, CMR: a.CMR, IPC: a.IPC,
		})
		if a.KernelRelaunched {
			w.j.Record(obs.Event{Cycle: sample.Cycle, Kind: obs.EvKernel, App: i})
		}
	}

	if w.o.Metrics != nil {
		w.cycleG.Set(float64(sample.Cycle))
		w.memCycleG.Set(float64(s.memCycle))
		w.totalBW.Set(sample.TotalBW)
		w.windows.Set(windows)

		var rowHits, rowMisses, reads, writes, bytes, refreshes uint64
		var l2Stalls, l2Occ, latSum uint64
		memCyclesWin := float64(s.opts.WindowCycles) * s.cfg.MemCyclesPerCoreCycle()
		for pi, p := range s.partitions {
			for app := range p.Apps {
				a := &p.Apps[app]
				rowHits += a.RowHits
				rowMisses += a.RowMisses
				reads += a.DRAMReads
				writes += a.DRAMWrites
				bytes += a.BWBytes
				latSum += a.LatencySum
			}
			refreshes += p.Refreshes
			l2Stalls += p.MSHRStalls
			l2Occ += uint64(p.OutstandingMisses())
			w.partQ[pi].Set(float64(p.QueueDepth()))
			w.partIn[pi].Set(float64(p.InputDepth()))
			if memCyclesWin > 0 {
				w.partBus[pi].Set(float64(p.BusBusy-s.win.BusBusy[pi]) / memCyclesWin)
			}
		}
		w.rowHits.Set(rowHits)
		w.rowMisses.Set(rowMisses)
		w.dramReads.Set(reads)
		w.dramWrites.Set(writes)
		w.dramBytes.Set(bytes)
		w.refreshes.Set(refreshes)
		w.mshrStallL2.Set(l2Stalls)
		w.mshrOccL2.Set(float64(l2Occ))
		// The window-start record sums every partition's DRAM reads.
		latSumWin, readsWin := latSum, reads
		for _, a := range s.win.Apps {
			latSumWin -= a.LatSum
			readsWin -= a.Reads
		}
		if readsWin > 0 {
			w.latHist.Observe(float64(latSumWin) / float64(readsWin))
		}

		var l1Stalls, l1Occ uint64
		for i, c := range s.cores {
			l1Stalls += c.Stats.StallMSHR
			l1Occ += uint64(c.OutstandingMisses())
			w.coreIdle[i].Set(c.Stats.IdleCycles)
			w.coreStall[i].Set(c.Stats.MemStall)
			w.coreFF[i].Set(c.Stats.FastForward)
		}
		w.mshrStallL1.Set(l1Stalls)
		w.mshrOccL1.Set(float64(l1Occ))

		w.poolGets.Set(s.pool.Gets())
		w.poolAllocs.Set(s.pool.HeapAllocs())
		w.poolRecycles.Set(s.pool.Recycles())
		w.poolFree.Set(float64(s.pool.FreeLen()))
		if gets := s.pool.Gets(); gets > 0 {
			w.poolHit.Set(float64(gets-s.pool.HeapAllocs()) / float64(gets))
		}
	}

	if w.o.PhaseFn != nil {
		if ph := w.o.PhaseFn(); ph != w.lastPhase {
			w.lastPhase = ph
			w.j.Record(obs.Event{Cycle: sample.Cycle, Kind: obs.EvPhase, App: -1, Label: ph})
		}
	}

	// The machine window event last: the CSV exporter uses it to flush
	// the row assembled from the per-app events above.
	w.j.Record(obs.Event{
		Cycle: sample.Cycle, Kind: obs.EvWindow, App: -1, Window: windows,
		BW: sample.TotalBW,
	})
}
