// Package sim assembles the full machine — cores, interconnect, memory
// partitions — and runs the multi-application cycle loop, including the
// paper's MAFIA-style execution model: each application owns an exclusive,
// equal share of the cores while the L2 and DRAM are shared; a sampling
// window periodically gathers per-application telemetry (L1/L2 miss rates,
// attained bandwidth, effective bandwidth) and feeds the active TLP
// management policy, whose decisions are applied through the warp-limiting
// scheduler after a modeled communication delay.
package sim

import (
	"context"
	"fmt"
	"math/bits"

	"ebm/internal/config"
	"ebm/internal/dram"
	"ebm/internal/gpu"
	"ebm/internal/icnt"
	"ebm/internal/kernel"
	"ebm/internal/mem"
	"ebm/internal/obs"
	"ebm/internal/spec"
	"ebm/internal/tlp"
)

// Options configures one simulation run.
type Options struct {
	Config config.GPU

	// Apps are the co-scheduled applications (1..N).
	Apps []kernel.Params

	// CoresPerApp optionally assigns an explicit number of cores to each
	// app (must sum to Config.NumCores). Nil means an equal split.
	CoresPerApp []int

	// Manager is the TLP policy. Nil runs ++maxTLP.
	Manager tlp.Manager

	// TotalCycles and WarmupCycles delimit the run; metrics are measured
	// over [WarmupCycles, TotalCycles).
	TotalCycles  uint64
	WarmupCycles uint64

	// WindowCycles is the sampling-window length in core cycles
	// (default 5000).
	WindowCycles uint64

	// DesignatedSampling mimics the paper's low-overhead hardware: the
	// manager sees the L1 miss rate of one designated core per app and
	// the L2/bandwidth telemetry of one designated partition, instead of
	// machine-wide aggregates. Final Result metrics always aggregate.
	DesignatedSampling bool

	// DecisionDelay is the core-cycle lag between a manager decision and
	// its application at the warp schedulers (counter relay latency,
	// Fig. 8). Default 32.
	DecisionDelay uint64

	// L2WayPartition optionally restricts each app to a subset of L2 ways
	// (sensitivity study X3). Indexed [app][way].
	L2WayPartition [][]bool

	// VictimTags, when positive, enables an n-entry victim tag array on
	// every L1 (the lost-locality detector consumed by the CCWS
	// baseline's VTARate telemetry).
	VictimTags int

	// OnWindow, when non-nil, observes every sampling window after the
	// manager has seen it (tracing, Fig. 11). The Sample's Apps slice is
	// reused between windows to keep the cycle path allocation-free: copy
	// it if the hook retains telemetry beyond the call (the managers and
	// the trace recorder copy scalar fields, so they are unaffected).
	// A dsweep worker reports progress and forwards a test's injected
	// window stalls from it. The cancellation check at the same boundary
	// bounds a stalled run's abort to one window.
	OnWindow func(tlp.Sample)

	// Obs attaches the observability subsystem (internal/obs): the metric
	// registry is refreshed and the journal appended to at window and
	// decision granularity only. Nil (or an observer with no sinks) keeps
	// the cycle loop on a single pointer-nil branch per boundary event, so
	// disabled runs stay allocation-free and bit-identical to the golden
	// baselines.
	Obs *obs.Observer

	// CkptSink, when non-nil, is called at the end of every sampling
	// window's boundary bookkeeping with the count of windows completed so
	// far; SnapshotBytes called from inside the sink captures the
	// state a fork must resume from (the first cycle of the next window).
	// A sink error permanently disables further sink calls for this run —
	// checkpointing degrades, the simulation itself is never affected.
	CkptSink func(window uint64, s *Simulator) error
}

// DefaultWindowCycles is the sampling-window length applied when
// Options.WindowCycles is zero. Exported so checkpoint planners can
// compute window boundaries for specs that leave the field defaulted.
const DefaultWindowCycles = 5_000

func (o *Options) fillDefaults() error {
	if len(o.Apps) == 0 {
		return fmt.Errorf("sim: no applications")
	}
	if o.TotalCycles == 0 {
		o.TotalCycles = 120_000
	}
	if o.WindowCycles == 0 {
		o.WindowCycles = DefaultWindowCycles
	}
	if o.WarmupCycles >= o.TotalCycles {
		return fmt.Errorf("sim: warmup %d >= total %d", o.WarmupCycles, o.TotalCycles)
	}
	if o.DecisionDelay == 0 {
		o.DecisionDelay = 32
	}
	if o.Manager == nil {
		o.Manager = spec.MustManager(spec.MaxTLP(), len(o.Apps))
	}
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.CoresPerApp == nil {
		if o.Config.NumCores%len(o.Apps) != 0 {
			return fmt.Errorf("sim: %d cores not divisible among %d apps",
				o.Config.NumCores, len(o.Apps))
		}
		per := o.Config.NumCores / len(o.Apps)
		o.CoresPerApp = make([]int, len(o.Apps))
		for i := range o.CoresPerApp {
			o.CoresPerApp[i] = per
		}
	}
	sum := 0
	for _, n := range o.CoresPerApp {
		if n <= 0 {
			return fmt.Errorf("sim: app with %d cores", n)
		}
		sum += n
	}
	if sum != o.Config.NumCores {
		return fmt.Errorf("sim: core assignment %v does not sum to %d",
			o.CoresPerApp, o.Config.NumCores)
	}
	for _, p := range o.Apps {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// AppResult is one application's measured behaviour over the measurement
// region of a run.
type AppResult struct {
	Name  string
	Insts uint64
	IPC   float64

	L1MR float64
	L2MR float64
	CMR  float64
	BW   float64 // fraction of peak DRAM bandwidth
	EB   float64

	RowHitRate   float64
	AvgLatency   float64 // mean DRAM read latency in memory cycles
	MemStallFrac float64
	IssueUtil    float64

	AvgTLP   float64
	FinalTLP int
	Kernels  uint64 // kernel launches completed during measurement
}

// Result is the outcome of one run.
type Result struct {
	Cycles  uint64 // measured core cycles
	TotalBW float64
	Apps    []AppResult
	Windows uint64

	// Decisions is the record of the policy's decisions over the whole
	// run, warmup included; nil for a static policy.
	Decisions *Decisions `json:",omitempty"`
}

// IPCs returns the per-app IPC vector in a fresh slice. Hot reporting
// loops (grid evaluation) should use IPCsInto with a reused buffer.
func (r Result) IPCs() []float64 { return r.IPCsInto(nil) }

// IPCsInto appends the per-app IPC vector to dst (pass dst[:0] to reuse a
// buffer) and returns the extended slice.
func (r Result) IPCsInto(dst []float64) []float64 {
	for _, a := range r.Apps {
		dst = append(dst, a.IPC)
	}
	return dst
}

// EBs returns the per-app effective bandwidth vector in a fresh slice.
// Hot reporting loops should use EBsInto with a reused buffer.
func (r Result) EBs() []float64 { return r.EBsInto(nil) }

// EBsInto appends the per-app effective bandwidth vector to dst (pass
// dst[:0] to reuse a buffer) and returns the extended slice.
func (r Result) EBsInto(dst []float64) []float64 {
	for _, a := range r.Apps {
		dst = append(dst, a.EB)
	}
	return dst
}

// appSnapshot is one application's lifetime totals at a cycle. A run's
// Result differences the totals at the warmup boundary from those at the
// end, a sampling window's telemetry the totals at the window's start
// from those at its end. Its fields are exported so that engine
// checkpoints encode it as is.
type appSnapshot struct {
	Insts            uint64
	L1Acc, L1Miss    uint64
	VTAHits          uint64
	L2Acc, L2Miss    uint64
	BWBytes          uint64
	RowHits, RowMiss uint64
	LatSum, Reads    uint64
	MemStall         uint64
	Issued           uint64
	MemCycles        uint64
	TLPWeighted      float64
	Kernels          uint64
}

// windowStart is the record the current sampling window's telemetry
// differences from, captured at the window's first cycle. Its fields are
// exported so that engine checkpoints encode it as is.
type windowStart struct {
	Apps    []appSnapshot // per app, the counters buildSample reads (no clocks, TLP or kernels)
	BusBusy []uint64      // per partition, the data bus's busy memory cycles
}

// Simulator holds the assembled machine.
type Simulator struct {
	opts Options
	cfg  *config.GPU

	cores      []*gpu.Core
	appCores   [][]int                // core ids per app
	appStreams [][]*kernel.WarpStream // all warp streams per app
	phaseSets  [][]*kernel.Params     // phase rotation per app (base first)
	phaseIdx   []int
	partitions []*dram.Partition
	toMem      *icnt.Network
	toCore     *icnt.Network

	// pool recycles mem.Request objects machine-wide; one pool per
	// simulator, touched only by the (single-goroutine) cycle loop.
	pool *mem.Pool

	// Indices derived from the components, rebuilt on restore. awake holds
	// the cores that are not Quiet, the only ones the tick pass visits: a
	// quiet Tick removes its core, and wakeQuiet adds it back at an event
	// that can change its next Tick. queued holds the cores whose
	// out-queue is non-empty, the only ones the injection pass visits: an
	// out-queue grows only inside its core's Tick, so the tick pass adds
	// the core, and the pop that empties the queue removes it. headDst is
	// the destination partition of each core's out-queue head, decoded
	// once per head (-1 until then).
	awake   coreSet
	queued  coreSet
	headDst []int

	// reference disables every skip: each core and each memory partition
	// is ticked every cycle, every core's out-queue and every partition's
	// reply queue visited, and every crossbar port polled. Only tests set
	// it, to check the skips against the plain engine.
	reference bool

	// onEnqueue, when non-nil, sees every request the crossbar delivers
	// into a partition, with the memory cycle of its Enqueue. Only tests
	// set it, to capture a partition's input stream for replay.
	onEnqueue func(part int, memCycle uint64, req *mem.Request)

	// work counts the calls the engine's skips decide whether to make;
	// Work reads it.
	work Work

	cycle    uint64
	memCycle uint64
	memAcc   float64

	// Window progress lives on the simulator (not as Run locals) so a
	// restored run resumes mid-schedule: windows counts completed sampling
	// windows, nextWindow is the cycle the next boundary fires at.
	windows    uint64
	nextWindow uint64

	// ckptDead latches a CkptSink failure; atBoundary is true only while
	// the sink runs, marking that a snapshot must resume at cycle+1 (the
	// boundary's bookkeeping for cycle has already run).
	ckptDead   bool
	atBoundary bool

	curDecision  tlp.Decision
	pendDecision *tlp.Decision
	pendAt       uint64
	changes      []Change // the decision record's change points so far

	instAtLaunch []uint64 // per app, inst count at last kernel launch
	kernels      []uint64

	tlpAccum     []float64 // per app, cumulative TLP-cycles
	lastTLPFlush uint64

	warm  []appSnapshot // snapshot at warmup
	accum []appSnapshot // end-of-run snapshot buffer, reused
	win   windowStart   // totals at the current sampling window's start

	sampleApps []tlp.AppSample // per-window telemetry buffer, reused

	// obsw is non-nil only when Options.Obs carries a live sink; every
	// observability hook in Run branches on it.
	obsw *simObs
}

// New builds a simulator; Options are validated and defaulted.
func New(opts Options) (*Simulator, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	cfg := opts.Config
	s := &Simulator{
		opts:         opts,
		cfg:          &cfg,
		pool:         mem.NewPool(),
		awake:        newCoreSet(cfg.NumCores),
		queued:       newCoreSet(cfg.NumCores),
		headDst:      make([]int, cfg.NumCores),
		instAtLaunch: make([]uint64, len(opts.Apps)),
		kernels:      make([]uint64, len(opts.Apps)),
		tlpAccum:     make([]float64, len(opts.Apps)),
		win: windowStart{
			Apps:    make([]appSnapshot, len(opts.Apps)),
			BusBusy: make([]uint64, cfg.NumMemPartitions),
		},
	}
	s.nextWindow = opts.WindowCycles
	for ci := 0; ci < cfg.NumCores; ci++ {
		s.awake.add(ci)
		s.headDst[ci] = -1
	}

	numApps := len(opts.Apps)
	s.appCores = make([][]int, numApps)
	s.appStreams = make([][]*kernel.WarpStream, numApps)
	s.phaseSets = make([][]*kernel.Params, numApps)
	s.phaseIdx = make([]int, numApps)
	coreID := 0
	for app, n := range opts.CoresPerApp {
		base := &s.opts.Apps[app]
		s.phaseSets[app] = append(s.phaseSets[app], base)
		for i := range base.Phases {
			s.phaseSets[app] = append(s.phaseSets[app], &base.Phases[i])
		}
		for k := 0; k < n; k++ {
			streams := make([]*kernel.WarpStream, cfg.MaxWarpsPerCore)
			for w := range streams {
				globalWarp := (coreID-firstCore(opts.CoresPerApp, app))*cfg.MaxWarpsPerCore + w
				streams[w] = kernel.NewWarpStream(base, app, globalWarp, cfg.L1.LineBytes)
			}
			s.appStreams[app] = append(s.appStreams[app], streams...)
			c := gpu.NewCore(coreID, app, &cfg, streams, numApps)
			c.SetPool(s.pool)
			if opts.VictimTags > 0 {
				c.L1.EnableVictimTags(opts.VictimTags)
			}
			s.cores = append(s.cores, c)
			s.appCores[app] = append(s.appCores[app], coreID)
			coreID++
		}
	}

	s.partitions = make([]*dram.Partition, cfg.NumMemPartitions)
	for i := range s.partitions {
		s.partitions[i] = dram.NewPartition(i, &cfg, numApps)
		s.partitions[i].SetPool(s.pool)
		if opts.L2WayPartition != nil {
			for app, mask := range opts.L2WayPartition {
				if mask == nil {
					continue
				}
				if err := s.partitions[i].L2.SetWayPartition(app, mask); err != nil {
					return nil, err
				}
			}
		}
	}

	s.toMem = icnt.New(cfg.NumCores, cfg.NumMemPartitions, cfg.IcntLatency, cfg.IcntFlitSize, cfg.L1.LineBytes)
	s.toCore = icnt.New(cfg.NumMemPartitions, cfg.NumCores, cfg.IcntLatency, cfg.IcntFlitSize, cfg.L1.LineBytes)

	s.curDecision = opts.Manager.Initial(numApps)
	if len(s.curDecision.TLP) != numApps {
		// A wrong-shaped initial decision used to be silently padded by
		// the static manager; it is now a construction error everywhere.
		return nil, fmt.Errorf("sim: manager %q initial decision has %d TLP values for %d applications",
			opts.Manager.Name(), len(s.curDecision.TLP), numApps)
	}
	s.applyDecision(s.curDecision)
	s.noteChange(0)
	if opts.Obs != nil {
		s.obsw = newSimObs(s, opts.Obs)
	}
	return s, nil
}

func firstCore(coresPerApp []int, app int) int {
	sum := 0
	for i := 0; i < app; i++ {
		sum += coresPerApp[i]
	}
	return sum
}

// flushTLPAccum accrues TLP-cycles for every app up to the current cycle.
func (s *Simulator) flushTLPAccum() {
	if s.cycle <= s.lastTLPFlush {
		return
	}
	span := float64(s.cycle - s.lastTLPFlush)
	for app := range s.appCores {
		s.tlpAccum[app] += span * float64(s.CurrentTLP(app))
	}
	s.lastTLPFlush = s.cycle
}

// coreSet is a set of core ids, one bit per core (bit ci%64 of word
// ci/64); the engine's passes visit its members in ascending order.
type coreSet []uint64

func newCoreSet(n int) coreSet { return make(coreSet, (n+63)/64) }

func (b coreSet) add(ci int)      { b[ci>>6] |= 1 << (ci & 63) }
func (b coreSet) remove(ci int)   { b[ci>>6] &^= 1 << (ci & 63) }
func (b coreSet) has(ci int) bool { return b[ci>>6]&(1<<(ci&63)) != 0 }

// wakeQuiet ends core ci's quiet span at upTo (gpu.Core.Wake) and puts
// it back in the awake set. The reference engine ticks every core, so its
// awake set is always full; it ends spans at the same events.
func (s *Simulator) wakeQuiet(ci int, upTo uint64) {
	if s.awake.has(ci) && !s.reference {
		return
	}
	s.cores[ci].Wake(upTo)
	s.awake.add(ci)
}

func (s *Simulator) applyDecision(d tlp.Decision) {
	// A TLP or bypass change can make a ready-but-inactive warp issuable,
	// ending quiescence; settle and wake every fast-forwarded core first.
	for ci := range s.cores {
		s.wakeQuiet(ci, s.cycle)
	}
	s.flushTLPAccum()
	for app, cores := range s.appCores {
		for _, ci := range cores {
			if app < len(d.TLP) {
				s.cores[ci].SetTLP(config.ClampToLevel(d.TLP[app]))
			}
			if d.BypassL1 != nil && app < len(d.BypassL1) {
				s.cores[ci].SetBypassL1(d.BypassL1[app])
			}
		}
	}
	s.curDecision = d
}

// networkCap bounds the per-destination request backlog so saturated
// partitions back-pressure through to the cores.
const networkCap = 64

// Run executes the configured number of cycles and returns the measured
// result.
func (s *Simulator) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext is Run with cooperative cancellation: the context is
// checked once per sampling window (never per cycle, keeping the hot
// loop allocation-free — context.Background costs a single nil-channel
// test), so a cancelled run returns within one window of the cancel with
// the partial result measured so far and ctx.Err(). Cancellation before
// the warmup boundary yields a zero Result (there is no measurement
// region yet). A nil ctx means context.Background().
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done() // nil for Background: the check below compiles away
	// Work accounting starts at the current cycle, so a restored run
	// credits only the tail it simulates itself, never the restored
	// prefix.
	counted := s.cycle
	// No initialization of cycle/windows/nextWindow: a fresh simulator
	// starts at zero and a restored one resumes where the snapshot left
	// off, so the same loop serves cold runs and checkpoint forks.
	for ; s.cycle < s.opts.TotalCycles; s.cycle++ {
		now := s.cycle

		if s.pendDecision != nil && now >= s.pendAt {
			s.applyDecision(*s.pendDecision)
			s.pendDecision = nil
			if s.obsw != nil {
				s.obsw.decision(s.curDecision, now)
			}
		}
		if now == s.opts.WarmupCycles {
			s.warm = s.snapshot()
			if s.obsw != nil {
				s.obsw.warmup(now)
			}
		}

		// Cores execute, the awake ones only, in ascending core order. A
		// quiet core leaves the awake set: its span is skipped until an
		// event that can change its next Tick wakes it, and credited in
		// bulk at that event or the next window boundary.
		for wi, word := range s.awake {
			for ; word != 0; word &= word - 1 {
				ci := wi<<6 | bits.TrailingZeros64(word)
				c := s.cores[ci]
				quiet := c.Tick(now)
				s.work.CoreTicks++
				if c.PendingRequests() > 0 || s.reference {
					s.queued.add(ci)
				}
				if quiet && !s.reference {
					s.awake.remove(ci)
				}
			}
		}

		// Core -> memory injection (one message at a time per core, with
		// flit serialization at the source port), over the cores with a
		// queued request in ascending order, so the crossbar sees the
		// pushes in core order. A back-pressured head stays queued; the
		// port retries next cycle.
		for wi, word := range s.queued {
			for ; word != 0; word &= word - 1 {
				ci := wi<<6 | bits.TrailingZeros64(word)
				if !s.toMem.CanSend(ci, now) {
					continue
				}
				c := s.cores[ci]
				dst := s.headDst[ci]
				if dst < 0 {
					req := c.PeekRequest()
					if req == nil {
						continue // the reference engine keeps empty queues in the set
					}
					dst = s.cfg.PartitionOf(req.LineAddr)
					s.headDst[ci] = dst
				}
				if s.toMem.Pending(dst) >= networkCap {
					continue
				}
				req := c.PopRequest()
				s.headDst[ci] = -1
				if c.PendingRequests() == 0 && !s.reference {
					s.queued.remove(ci)
				}
				s.toMem.Push(ci, dst, req, now)
				if c.Quiet() {
					// Wake the core only if the freed slot lets one of
					// its aborted issues through.
					if c.Unblocked() {
						s.wakeQuiet(ci, now+1)
						s.work.PopWakes++
					} else {
						s.work.PopSleeps++
					}
				}
			}
		}

		// Memory clock domain.
		s.memAcc += s.cfg.MemCyclesPerCoreCycle()
		for s.memAcc >= 1 {
			s.memAcc--
			for _, p := range s.partitions {
				// Only a Ready port has a request to deliver; Pop would
				// return nil on any other.
				if p.CanAccept() && (s.reference || s.toMem.Ready(p.ID, now)) {
					s.work.PopsToMem++
					if req := s.toMem.Pop(p.ID, now); req != nil {
						if s.onEnqueue != nil {
							s.onEnqueue(p.ID, s.memCycle, req)
						}
						p.Enqueue(req, s.memCycle)
					}
				}
				// Before its NextTick a partition's Tick changes nothing
				// but a stalled head's retry, which Settle credits; skip
				// it.
				if s.reference || s.memCycle >= p.NextTick() {
					p.Tick(s.memCycle)
					s.work.PartTicks++
				}
			}
			s.memCycle++
		}

		// Partition -> core responses (flit-serialized at the source),
		// from the partitions with a reply queued.
		for pi, p := range s.partitions {
			if (!s.reference && p.PendingResponses() == 0) || !s.toCore.CanSend(pi, now) {
				continue
			}
			if resp := p.PopResponse(); resp != nil {
				s.toCore.Push(pi, resp.Core, resp, now)
			}
		}

		// Deliver responses to the cores whose port is Ready. A fill ends
		// the destination core's quiescence (the woken warp may issue next
		// cycle); the reply object itself is consumed here and recycled to
		// the pool. The pass ends once no port holds a reply ready by now.
		for ci := 0; ci < len(s.cores) && (s.reference || now >= s.toCore.NextReady()); ci++ {
			if !s.reference && !s.toCore.Ready(ci, now) {
				continue
			}
			s.work.PopsToCore++
			if resp := s.toCore.Pop(ci, now); resp != nil {
				s.wakeQuiet(ci, now+1)
				s.cores[ci].HandleFill(resp.LineAddr)
				s.pool.Put(resp)
			}
		}

		// Sampling window boundary.
		if now+1 == s.nextWindow {
			s.windows++
			addWork(now + 1 - counted)
			counted = now + 1
			// Settle skipped spans so the window telemetry is exact; quiet
			// cores and stalled partitions stay skipped.
			for _, c := range s.cores {
				c.Settle(now + 1)
			}
			for _, p := range s.partitions {
				p.Settle(s.memCycle)
			}
			sample := s.buildSample(now + 1)
			d := s.opts.Manager.OnSample(sample)
			if len(d.TLP) != len(s.appCores) {
				// A malformed decision never reaches the schedulers: keep
				// the current combination and journal the fault.
				if s.obsw != nil {
					s.obsw.policyFault(fmt.Sprintf(
						"manager %q decision has %d TLP values for %d applications",
						s.opts.Manager.Name(), len(d.TLP), len(s.appCores)), now+1)
				}
				d = s.curDecision
			}
			if !d.Equal(s.curDecision) {
				dc := d.Clone()
				s.pendDecision = &dc
				s.pendAt = now + 1 + s.opts.DecisionDelay
			}
			s.noteChange(now + 1)
			if s.opts.OnWindow != nil {
				s.opts.OnWindow(sample)
			}
			if s.obsw != nil {
				s.obsw.window(s, sample, s.windows)
			}
			s.startWindow()
			s.nextWindow += s.opts.WindowCycles

			// The cancellation check below bounds abort latency to one
			// window.
			if s.opts.CkptSink != nil && !s.ckptDead {
				s.atBoundary = true
				if err := s.opts.CkptSink(s.windows, s); err != nil {
					s.ckptDead = true
				}
				s.atBoundary = false
			}
			if done != nil {
				select {
				case <-done:
					return s.partial(s.windows), ctx.Err()
				default:
				}
			}
		}
	}
	addWork(s.cycle - counted) // partial final window
	return s.result(s.windows), nil
}

// partial assembles the best-effort result of an interrupted run: the
// normal measurement over [warmup, cancel) once the warmup boundary has
// passed, a zero Result (window count only) before it.
func (s *Simulator) partial(windows uint64) Result {
	if s.warm == nil || s.cycle <= s.opts.WarmupCycles {
		return Result{Windows: windows}
	}
	return s.result(windows)
}

// Cycle returns the current core cycle (testing hook).
func (s *Simulator) Cycle() uint64 { return s.cycle }

// CurrentTLP returns the TLP limit currently applied for app.
func (s *Simulator) CurrentTLP(app int) int {
	return s.cores[s.appCores[app][0]].TLP()
}
