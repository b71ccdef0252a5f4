package simcache

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/spec"
)

// Version is one int field a content address folds in ahead of its run:
// the field's JSON name, which must need no escaping, and its value.
type Version struct {
	Name string
	N    int
}

// HashRun returns a run's content address under versions: FNV-1a, from
// the package's offset basis, over the bytes json.Marshal writes for a
// struct of int fields named and ordered as versions, followed by a field
// "run" holding rs, rendered as 16 hex digits. Key hashes the canonical
// run under {"schema"}; ckpt.PrefixKey hashes the prefix-canonical run
// under its three versions. The bytes are written without reflection into
// a pooled buffer. Like json.Marshal, it fails on a NaN or infinite float
// (and on a Phases cycle), by panicking, as HashJSON does.
func HashRun(rs spec.RunSpec, versions ...Version) string {
	bp := bufs.Get().(*[]byte)
	b := appendVersioned((*bp)[:0], &rs, versions)
	k := sum64(b)
	*bp = b
	bufs.Put(bp)
	return k
}

// bufs holds the byte buffers HashRun writes keys into and Cache.get
// reads entries into. Neither returns anything that references its
// buffer, so a buffer goes back as soon as its call is done with it.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// appendVersioned appends what HashRun hashes. Every appender below
// writes exactly the bytes json.Marshal writes for its value: the JSON
// names of the tagged structs and the Go names of the untagged config.GPU
// and kernel.Params, in declaration order; the omitempty fields only when
// non-zero; nil slices as null. A field added to any of these structs
// changes what json.Marshal writes, so it must be added here as well:
// until it is, TestKeyBytesMatchMarshal fails.
func appendVersioned(b []byte, rs *spec.RunSpec, versions []Version) []byte {
	b = append(b, '{')
	for _, v := range versions {
		b = append(b, '"')
		b = append(b, v.Name...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, int64(v.N), 10)
		b = append(b, ',')
	}
	b = append(b, `"run":`...)
	b = appendRunSpec(b, rs)
	return append(b, '}')
}

func appendRunSpec(b []byte, r *spec.RunSpec) []byte {
	b = append(b, `{"config":`...)
	b = appendGPU(b, &r.Config)
	b = append(b, `,"apps":`...)
	b = appendParamsList(b, r.Apps, 0)
	if len(r.CoresPerApp) > 0 {
		b = append(b, `,"cores_per_app":`...)
		b = appendInts(b, r.CoresPerApp)
	}
	b = append(b, `,"scheme":`...)
	b = appendScheme(b, &r.Scheme)
	b = appendUint(b, `,"total_cycles":`, r.TotalCycles)
	b = appendUint(b, `,"warmup_cycles":`, r.WarmupCycles)
	if r.WindowCycles != 0 {
		b = appendUint(b, `,"window_cycles":`, r.WindowCycles)
	}
	if r.DesignatedSampling {
		b = append(b, `,"designated":true`...)
	}
	b = appendIntOmit(b, `,"victim_tags":`, r.VictimTags)
	if len(r.L2WayPartition) > 0 {
		b = append(b, `,"l2_ways":[`...)
		for i, ways := range r.L2WayPartition {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendBools(b, ways)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendGPU(b []byte, g *config.GPU) []byte {
	b = appendInt(b, `{"NumCores":`, g.NumCores)
	b = appendInt(b, `,"SIMTWidth":`, g.SIMTWidth)
	b = appendInt(b, `,"MaxWarpsPerCore":`, g.MaxWarpsPerCore)
	b = appendInt(b, `,"SchedulersPerCore":`, g.SchedulersPerCore)
	b = appendInt(b, `,"CoreClockMHz":`, g.CoreClockMHz)
	b = appendInt(b, `,"IcntClockMHz":`, g.IcntClockMHz)
	b = appendInt(b, `,"MemClockMHz":`, g.MemClockMHz)
	b = append(b, `,"L1":`...)
	b = appendGeometry(b, &g.L1)
	b = append(b, `,"L2":`...)
	b = appendGeometry(b, &g.L2)
	b = appendInt(b, `,"L1HitLatency":`, g.L1HitLatency)
	b = appendInt(b, `,"L2HitLatency":`, g.L2HitLatency)
	b = appendInt(b, `,"L1MSHRs":`, g.L1MSHRs)
	b = appendInt(b, `,"L2MSHRs":`, g.L2MSHRs)
	b = appendInt(b, `,"IcntLatency":`, g.IcntLatency)
	b = appendInt(b, `,"IcntFlitSize":`, g.IcntFlitSize)
	b = appendInt(b, `,"NumMemPartitions":`, g.NumMemPartitions)
	b = appendInt(b, `,"BanksPerMC":`, g.BanksPerMC)
	b = appendInt(b, `,"BankGroupsPerMC":`, g.BankGroupsPerMC)
	b = appendInt(b, `,"BusWidthBytes":`, g.BusWidthBytes)
	b = appendInt(b, `,"AddrInterleave":`, g.AddrInterleave)
	t := &g.Timing
	b = appendInt(b, `,"Timing":{"TCL":`, t.TCL)
	b = appendInt(b, `,"TRP":`, t.TRP)
	b = appendInt(b, `,"TRAS":`, t.TRAS)
	b = appendInt(b, `,"TRCD":`, t.TRCD)
	b = appendInt(b, `,"TRRD":`, t.TRRD)
	b = appendInt(b, `,"TCCD":`, t.TCCD)
	b = appendInt(b, `,"TWR":`, t.TWR)
	b = appendInt(b, `,"BL":`, t.BL)
	b = appendInt(b, `,"TREFI":`, t.TREFI)
	b = appendInt(b, `,"TRFC":`, t.TRFC)
	b = appendInt(b, `},"RowBytes":`, g.RowBytes)
	return append(b, '}')
}

func appendGeometry(b []byte, c *config.CacheGeometry) []byte {
	b = appendInt(b, `{"SizeBytes":`, c.SizeBytes)
	b = appendInt(b, `,"Ways":`, c.Ways)
	b = appendInt(b, `,"LineBytes":`, c.LineBytes)
	return append(b, '}')
}

// maxPhaseDepth bounds how deep appendParamsList follows Phases itself.
// Below it, json.Marshal writes the rest: the same bytes, and the error
// json.Marshal reports for a Phases list that contains itself.
const maxPhaseDepth = 16

func appendParamsList(b []byte, ps []kernel.Params, depth int) []byte {
	switch {
	case ps == nil:
		return append(b, "null"...)
	case depth > maxPhaseDepth:
		return appendMarshal(b, ps)
	}
	b = append(b, '[')
	for i := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendParams(b, &ps[i], depth)
	}
	return append(b, ']')
}

func appendParams(b []byte, p *kernel.Params, depth int) []byte {
	b = append(b, `{"Name":`...)
	b = appendString(b, p.Name)
	b = appendFloat(b, `,"Rm":`, p.Rm)
	b = appendInt(b, `,"ALUDelay":`, p.ALUDelay)
	b = appendInt(b, `,"CoalesceLines":`, p.CoalesceLines)
	b = appendInt(b, `,"StepBytes":`, p.StepBytes)
	b = appendInt(b, `,"PrivateWS":`, p.PrivateWS)
	b = appendFloat(b, `,"PrivRandom":`, p.PrivRandom)
	b = appendInt(b, `,"SharedWS":`, p.SharedWS)
	b = appendFloat(b, `,"SharedFrac":`, p.SharedFrac)
	b = append(b, `,"SharedSeq":`...)
	b = strconv.AppendBool(b, p.SharedSeq)
	b = appendFloat(b, `,"WriteFrac":`, p.WriteFrac)
	b = appendUint(b, `,"KernelInsts":`, p.KernelInsts)
	b = append(b, `,"Phases":`...)
	b = appendParamsList(b, p.Phases, depth+1)
	b = appendUint(b, `,"Seed":`, p.Seed)
	return append(b, '}')
}

func appendScheme(b []byte, s *spec.SchemeSpec) []byte {
	b = append(b, `{"kind":`...)
	b = appendString(b, s.Kind)
	if st := s.Static; st != nil {
		b = append(b, `,"static":`...)
		start := len(b)
		if len(st.TLPs) > 0 {
			b = append(b, `,"tlps":`...)
			b = appendInts(b, st.TLPs)
		}
		if len(st.Bypass) > 0 {
			b = append(b, `,"bypass":`...)
			b = appendBools(b, st.Bypass)
		}
		if st.Label != "" {
			b = append(b, `,"label":`...)
			b = appendString(b, st.Label)
		}
		b = closeObject(b, start)
	}
	if k := s.DynCTA; k != nil {
		b = append(b, `,"dyncta":`...)
		start := len(b)
		b = appendFloatOmit(b, `,"high_mem_stall":`, k.HighMemStall)
		b = appendFloatOmit(b, `,"low_mem_stall":`, k.LowMemStall)
		b = appendFloatOmit(b, `,"low_util":`, k.LowUtil)
		b = appendIntOmit(b, `,"hysteresis":`, k.Hysteresis)
		b = closeObject(b, start)
	}
	if k := s.CCWS; k != nil {
		b = append(b, `,"ccws":`...)
		start := len(b)
		b = appendFloatOmit(b, `,"high_vta":`, k.HighVTA)
		b = appendFloatOmit(b, `,"low_vta":`, k.LowVTA)
		b = appendFloatOmit(b, `,"low_util":`, k.LowUtil)
		b = appendIntOmit(b, `,"hysteresis":`, k.Hysteresis)
		b = closeObject(b, start)
	}
	if k := s.ModBypass; k != nil {
		b = append(b, `,"modbypass":`...)
		start := len(b)
		b = appendFloatOmit(b, `,"bypass_l1mr":`, k.BypassL1MR)
		b = appendIntOmit(b, `,"confirm":`, k.Confirm)
		b = appendIntOmit(b, `,"probe_every":`, k.ProbeEvery)
		b = closeObject(b, start)
	}
	if p := s.PBS; p != nil {
		b = append(b, `,"pbs":`...)
		start := len(b)
		if p.Scaling != "" {
			b = append(b, `,"scaling":`...)
			b = appendString(b, p.Scaling)
		}
		if len(p.GroupEB) > 0 {
			b = append(b, `,"group_eb":[`...)
			for i, f := range p.GroupEB {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendFloat(b, "", f)
			}
			b = append(b, ']')
		}
		if len(p.SweepLevels) > 0 {
			b = append(b, `,"sweep_levels":`...)
			b = appendInts(b, p.SweepLevels)
		}
		b = appendIntOmit(b, `,"settle_windows":`, p.SettleWindows)
		b = appendIntOmit(b, `,"measure_windows":`, p.MeasureWindows)
		b = appendIntOmit(b, `,"tune_patience":`, p.TunePatience)
		b = appendIntOmit(b, `,"full_search_every":`, p.FullSearchEvery)
		b = appendFloatOmit(b, `,"drift_threshold":`, p.DriftThreshold)
		b = appendIntOmit(b, `,"drift_windows":`, p.DriftWindows)
		b = closeObject(b, start)
	}
	if k := s.Batch; k != nil {
		b = append(b, `,"batch":`...)
		start := len(b)
		b = appendIntOmit(b, `,"period":`, k.Period)
		b = appendIntOmit(b, `,"hi":`, k.Hi)
		b = appendIntOmit(b, `,"lo":`, k.Lo)
		b = closeObject(b, start)
	}
	if k := s.WRS; k != nil {
		b = append(b, `,"wrs":`...)
		start := len(b)
		b = appendIntOmit(b, `,"share":`, k.Share)
		b = appendFloatOmit(b, `,"high_mem_stall":`, k.HighMemStall)
		b = appendFloatOmit(b, `,"low_util":`, k.LowUtil)
		b = appendIntOmit(b, `,"hysteresis":`, k.Hysteresis)
		b = closeObject(b, start)
	}
	return append(b, '}')
}

// closeObject finishes an object of omitempty fields appended from start,
// each with a leading comma: the first one's comma becomes the opening
// brace, and an object with none is {}.
func closeObject(b []byte, start int) []byte {
	if len(b) == start {
		return append(b, "{}"...)
	}
	b[start] = '{'
	return append(b, '}')
}

// The scalar appenders write name, then the value as json.Marshal
// writes it; the Omit forms write nothing for a zero value, as
// omitempty does.

func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func appendIntOmit(b []byte, name string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, name, v)
}

func appendUint(b []byte, name string, v uint64) []byte {
	return strconv.AppendUint(append(b, name...), v, 10)
}

// appendFloat writes f as encoding/json's float64 encoder does: the
// shortest form that parses back to the same bits, in 'f' notation
// unless 0 < |f| < 1e-6 or |f| >= 1e21, and an exponent with no leading
// zero (e-7, not e-07). NaN and ±Inf panic with json.Marshal's error.
func appendFloat(b []byte, name string, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		panic(err)
	}
	b = append(b, name...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func appendFloatOmit(b []byte, name string, f float64) []byte {
	if f == 0 {
		return b
	}
	return appendFloat(b, name, f)
}

func appendInts(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

func appendBools(b []byte, vs []bool) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, v)
	}
	return append(b, ']')
}

// appendString writes a string of printable ASCII that json.Marshal
// leaves unescaped (no quote, backslash, <, > or &), which is every name
// and kind in this repository, between quotes; any other string is
// json.Marshal's own encoding of it, escapes and UTF-8 repair included.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendMarshal(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMarshal appends json.Marshal(v), panicking on its error.
func appendMarshal(b []byte, v any) []byte {
	m, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(b, m...)
}
