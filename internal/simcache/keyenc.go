package simcache

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/spec"
	"ebm/internal/tlp"
)

// HashRun returns a run's content address under versions: FNV-1a, from
// the package's offset basis, over a binary walk of the version numbers
// and then of rs, rendered as 16 hex digits. Key hashes the canonical run
// under SchemaVersion; ckpt.PrefixKey hashes the prefix-canonical run
// under its three versions.
//
// The walk is injective: every number is 8 bytes little-endian (a float
// by its bits, with -0 written as 0, which it equals), every string and
// slice carries its length, every pointer and slice a presence byte, and
// every struct its field count, so two runs write equal bytes exactly
// when they are reflect.DeepEqual. A NaN, which equals nothing, and
// Phases nested deeper than maxPhaseDepth (a Phases list that contains
// itself never ends) panic.
func HashRun(rs spec.RunSpec, versions ...int) string {
	bp := bufs.Get().(*[]byte)
	w := keyWriter{(*bp)[:0]}
	w.int(len(versions))
	w.int(versions...)
	w.run(&rs)
	k := sum64(w.b)
	*bp = w.b
	bufs.Put(bp)
	return k
}

// bufs holds the byte buffers HashRun writes keys into and Cache.get
// reads entries into. Neither returns anything that references its
// buffer, so a buffer goes back as soon as its call is done with it.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPhaseDepth bounds how deep the walk follows kernel.Params.Phases.
const maxPhaseDepth = 16

// The field counts the walk writes ahead of each struct's fields.
var (
	nRun, nGPU, nGeometry, nTiming, nParams = numFields[spec.RunSpec](), numFields[config.GPU](),
		numFields[config.CacheGeometry](), numFields[config.DRAMTiming](), numFields[kernel.Params]()
	nScheme, nStatic, nPBS                   = numFields[spec.SchemeSpec](), numFields[spec.StaticSpec](), numFields[spec.PBSSpec]()
	nDynCTA, nCCWS, nModBypass, nBatch, nWRS = numFields[tlp.DynCTAKnobs](), numFields[tlp.CCWSKnobs](),
		numFields[tlp.ModBypassKnobs](), numFields[tlp.BatchKnobs](), numFields[tlp.WRSKnobs]()
)

func numFields[T any]() int { return reflect.TypeOf((*T)(nil)).Elem().NumField() }

// keyWriter appends the walk HashRun hashes, each struct's fields in
// declaration order.
type keyWriter struct{ b []byte }

func (w *keyWriter) int(vs ...int) {
	for _, v := range vs {
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v))
	}
}

func (w *keyWriter) u64(vs ...uint64) {
	for _, v := range vs {
		w.b = binary.LittleEndian.AppendUint64(w.b, v)
	}
}

func (w *keyWriter) float(fs ...float64) {
	for _, f := range fs {
		if f != f {
			panic("simcache: a run spec holding NaN has no key")
		}
		bits := math.Float64bits(f)
		if f == 0 {
			bits = 0
		}
		w.b = binary.LittleEndian.AppendUint64(w.b, bits)
	}
}

func (w *keyWriter) bool(vs ...bool) {
	for _, v := range vs {
		if v {
			w.b = append(w.b, 1)
		} else {
			w.b = append(w.b, 0)
		}
	}
}

func (w *keyWriter) str(s string) {
	w.int(len(s))
	w.b = append(w.b, s...)
}

// list writes the presence byte of a slice and, when it is non-nil, its
// length; it reports whether the elements follow.
func (w *keyWriter) list(present bool, n int) bool {
	w.bool(present)
	if present {
		w.int(n)
	}
	return present
}

// ptr writes the presence byte of a pointer and, when it is non-nil, the
// field count of the struct that follows.
func (w *keyWriter) ptr(present bool, fields int) bool {
	w.bool(present)
	if present {
		w.int(fields)
	}
	return present
}

func (w *keyWriter) ints(vs []int) {
	if w.list(vs != nil, len(vs)) {
		w.int(vs...)
	}
}

func (w *keyWriter) bools(vs []bool) {
	if w.list(vs != nil, len(vs)) {
		w.bool(vs...)
	}
}

func (w *keyWriter) run(r *spec.RunSpec) {
	w.int(nRun)
	g := &r.Config
	w.int(nGPU, g.NumCores, g.SIMTWidth, g.MaxWarpsPerCore, g.SchedulersPerCore,
		g.CoreClockMHz, g.IcntClockMHz, g.MemClockMHz)
	for _, c := range []*config.CacheGeometry{&g.L1, &g.L2} {
		w.int(nGeometry, c.SizeBytes, c.Ways, c.LineBytes)
	}
	w.int(g.L1HitLatency, g.L2HitLatency, g.L1MSHRs, g.L2MSHRs, g.IcntLatency, g.IcntFlitSize,
		g.NumMemPartitions, g.BanksPerMC, g.BankGroupsPerMC, g.BusWidthBytes, g.AddrInterleave)
	t := &g.Timing
	w.int(nTiming, t.TCL, t.TRP, t.TRAS, t.TRCD, t.TRRD, t.TCCD, t.TWR, t.BL, t.TREFI, t.TRFC)
	w.int(g.RowBytes)

	w.params(r.Apps, 0)
	w.ints(r.CoresPerApp)
	w.scheme(&r.Scheme)
	w.u64(r.TotalCycles, r.WarmupCycles, r.WindowCycles)
	w.bool(r.DesignatedSampling)
	w.int(r.VictimTags)
	if w.list(r.L2WayPartition != nil, len(r.L2WayPartition)) {
		for _, ways := range r.L2WayPartition {
			w.bools(ways)
		}
	}
}

func (w *keyWriter) params(ps []kernel.Params, depth int) {
	if depth > maxPhaseDepth {
		panic(fmt.Sprintf("simcache: kernel phases nested deeper than %d", maxPhaseDepth))
	}
	if !w.list(ps != nil, len(ps)) {
		return
	}
	for i := range ps {
		p := &ps[i]
		w.int(nParams)
		w.str(p.Name)
		w.float(p.Rm)
		w.int(p.ALUDelay, p.CoalesceLines, p.StepBytes, p.PrivateWS)
		w.float(p.PrivRandom)
		w.int(p.SharedWS)
		w.float(p.SharedFrac)
		w.bool(p.SharedSeq)
		w.float(p.WriteFrac)
		w.u64(p.KernelInsts)
		w.params(p.Phases, depth+1)
		w.u64(p.Seed)
	}
}

func (w *keyWriter) scheme(s *spec.SchemeSpec) {
	w.int(nScheme)
	w.str(s.Kind)
	if st := s.Static; w.ptr(st != nil, nStatic) {
		w.ints(st.TLPs)
		w.bools(st.Bypass)
		w.str(st.Label)
	}
	if k := s.DynCTA; w.ptr(k != nil, nDynCTA) {
		w.float(k.HighMemStall, k.LowMemStall, k.LowUtil)
		w.int(k.Hysteresis)
	}
	if k := s.CCWS; w.ptr(k != nil, nCCWS) {
		w.float(k.HighVTA, k.LowVTA, k.LowUtil)
		w.int(k.Hysteresis)
	}
	if k := s.ModBypass; w.ptr(k != nil, nModBypass) {
		w.float(k.BypassL1MR)
		w.int(k.Confirm, k.ProbeEvery)
	}
	if p := s.PBS; w.ptr(p != nil, nPBS) {
		w.str(p.Scaling)
		if w.list(p.GroupEB != nil, len(p.GroupEB)) {
			w.float(p.GroupEB...)
		}
		w.ints(p.SweepLevels)
		w.int(p.SettleWindows, p.MeasureWindows, p.TunePatience, p.FullSearchEvery)
		w.float(p.DriftThreshold)
		w.int(p.DriftWindows)
	}
	if k := s.Batch; w.ptr(k != nil, nBatch) {
		w.int(k.Period, k.Hi, k.Lo)
	}
	if k := s.WRS; w.ptr(k != nil, nWRS) {
		w.int(k.Share)
		w.float(k.HighMemStall, k.LowUtil)
		w.int(k.Hysteresis)
	}
}
