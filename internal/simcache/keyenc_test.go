package simcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ebm/internal/kernel"
	"ebm/internal/spec"
	"ebm/internal/tlp"
)

// keyEnvelope is the value whose json.Marshal bytes Key hashes.
type keyEnvelope struct {
	Schema int          `json:"schema"`
	Run    spec.RunSpec `json:"run"`
}

// checkKeyBytes fails t unless the appender writes json.Marshal's bytes
// for rs's key envelope, or, where json.Marshal fails, HashRun panics.
func checkKeyBytes(t *testing.T, what string, rs spec.RunSpec) {
	t.Helper()
	want, err := json.Marshal(keyEnvelope{Schema: SchemaVersion, Run: rs})
	if err != nil {
		if !panics(func() { HashRun(rs, Version{"schema", SchemaVersion}) }) {
			t.Errorf("%s: json.Marshal fails (%v), HashRun does not panic", what, err)
		}
		return
	}
	var got []byte
	if panics(func() { got = appendVersioned(nil, &rs, []Version{{"schema", SchemaVersion}}) }) {
		t.Errorf("%s: the appender panics, json.Marshal writes %s", what, want)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s:\nappender     %s\njson.Marshal %s", what, got, want)
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// filled returns a run with every field reachable from spec.RunSpec set
// to a distinct non-zero value: every pointer set, every slice two long
// (Phases nested two deep, the innermost nil), every number the next of
// a count and every string its own name.
func filled() spec.RunSpec {
	var rs spec.RunSpec
	n := 0
	fill(reflect.ValueOf(&rs).Elem(), &n, 0)
	return rs
}

func fill(v reflect.Value, n *int, depth int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n, depth)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n, depth)
	case reflect.Slice:
		if depth == 3 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n, depth+1)
		}
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n) << 40)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.125)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	default:
		panic(fmt.Sprintf("fill: no value for a %s", v.Type()))
	}
}

// field is one value reachable from a run, named by its path.
type field struct {
	path string
	v    reflect.Value
}

// fields lists every field and slice element reachable from v, in the
// order json.Marshal writes them.
func fields(path string, v reflect.Value) []field {
	var out []field
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				p := path + "." + f.Name
				out = append(out, field{p, v.Field(i)})
				out = append(out, fields(p, v.Field(i))...)
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out = fields(path, v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			p := fmt.Sprintf("%s[%d]", path, i)
			out = append(out, field{p, v.Index(i)})
			out = append(out, fields(p, v.Index(i))...)
		}
	}
	return out
}

// TestKeyBytesMatchMarshal holds the key appender to json.Marshal over
// every field reachable from the key envelope: all of them set (so a
// field the appender drops, misnames or misorders shows), then each in
// turn at its zero value (omitempty), each slice empty rather than nil,
// each float at the edges of encoding/json's float format, each string
// holding what json.Marshal escapes or repairs, and NaN and ±Inf, where
// both must fail.
func TestKeyBytesMatchMarshal(t *testing.T) {
	full := filled()
	checkKeyBytes(t, "every field set", full)
	if got, want := HashRun(full, Version{"schema", SchemaVersion}), HashJSON(keyEnvelope{SchemaVersion, full}); got != want {
		t.Errorf("HashRun %s, HashJSON of the envelope %s", got, want)
	}

	floats := []float64{1e-7, 1e-6, 1e21, 1e20, math.Copysign(0, -1), 5e-324, 0.1 + 0.2,
		-1.5e-9, 123456789.125, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "BLK_TRD", "<a&b>", "\u2028x\u2029", "\xffbad\xc3", `q"uote\back`,
		"tab\tnl\n", "del\x7f", "naïve — 日本語"}
	n := len(fields("run", reflect.ValueOf(&full).Elem()))
	for k := 0; k < n; k++ {
		variant := func(name string, set func(reflect.Value)) {
			rs := filled()
			f := fields("run", reflect.ValueOf(&rs).Elem())[k]
			set(f.v)
			checkKeyBytes(t, f.path+" "+name, rs)
		}
		f := fields("run", reflect.ValueOf(&full).Elem())[k]
		variant("zero", func(v reflect.Value) { v.Set(reflect.Zero(v.Type())) })
		switch f.v.Kind() {
		case reflect.Slice:
			variant("empty", func(v reflect.Value) { v.Set(reflect.MakeSlice(v.Type(), 0, 0)) })
		case reflect.Float64:
			for _, x := range floats {
				variant(fmt.Sprint(x), func(v reflect.Value) { v.SetFloat(x) })
			}
		case reflect.String:
			for _, s := range strs {
				variant(fmt.Sprintf("%q", s), func(v reflect.Value) { v.SetString(s) })
			}
		}
	}

	// Phases nested past the appender's own depth, and a Phases list that
	// contains itself, which json.Marshal reports as a cycle.
	deep := testSpec()
	for i := 0; i < 3*maxPhaseDepth; i++ {
		deep.Apps = []kernel.Params{{Name: fmt.Sprint("level", i), Phases: deep.Apps}}
	}
	checkKeyBytes(t, "deep phases", deep)
	cyclic := testSpec()
	cyclic.Apps[0].Phases = cyclic.Apps
	checkKeyBytes(t, "cyclic phases", cyclic)
}

// FuzzKeyMatchesMarshal holds the key appender to json.Marshal on runs
// built from fuzzed names, floats and integers and a shape byte that sets
// or clears the optional parts: the bytes must be equal, and HashRun must
// panic exactly where json.Marshal fails.
func FuzzKeyMatchesMarshal(f *testing.F) {
	f.Add("BLK", "pbs-ws", "alone@4", 0.25, 1e-7, 1e21, int64(4), uint64(60_000), uint8(0xff))
	f.Add("<&>", "static", "\u2028", 0.1+0.2, 5e-324, math.Copysign(0, -1), int64(-1), uint64(1<<63), uint8(0x55))
	f.Add("\xff", "", "", math.NaN(), 1.0, 2.0, int64(0), uint64(0), uint8(0xaa))
	f.Fuzz(func(t *testing.T, name, kind, label string, f1, f2, f3 float64, i int64, u uint64, shape uint8) {
		rs := testSpec()
		app := &rs.Apps[0]
		app.Name, app.Rm, app.KernelInsts, app.ALUDelay = name, f1, u, int(i)
		switch shape & 3 {
		case 1:
			app.Phases = []kernel.Params{{Name: label, SharedFrac: f2, Phases: []kernel.Params{}}}
		case 2:
			app.Phases = []kernel.Params{}
		}
		rs.Scheme = spec.SchemeSpec{Kind: kind}
		if shape&4 != 0 {
			rs.Scheme.Static = &spec.StaticSpec{TLPs: []int{int(i), 2}, Label: label}
			if shape&8 != 0 {
				rs.Scheme.Static.Bypass = []bool{true, false}
			}
		}
		if shape&16 != 0 {
			rs.Scheme.PBS = &spec.PBSSpec{Scaling: label, GroupEB: []float64{f2, f3}, DriftThreshold: f3, SettleWindows: int(i)}
			rs.Scheme.CCWS = &tlp.CCWSKnobs{HighVTA: f1, Hysteresis: int(i)}
		}
		if shape&32 != 0 {
			rs.L2WayPartition = [][]bool{nil, {}, {true}}
			rs.CoresPerApp = []int{int(i)}
		}
		if shape&64 != 0 {
			rs.Scheme.WRS = &tlp.WRSKnobs{LowUtil: f2}
			rs.Scheme.DynCTA = &tlp.DynCTAKnobs{}
		}
		rs.DesignatedSampling = shape&128 != 0
		rs.TotalCycles, rs.WindowCycles, rs.VictimTags = u, u>>3, int(i>>1)
		rs.Config.L1.Ways, rs.Config.Timing.TREFI = int(i), int(-i)
		checkKeyBytes(t, "fuzzed run", rs)
	})
}
