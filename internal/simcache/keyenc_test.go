package simcache_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/tlp"
)

// filled returns a run with every field reachable from spec.RunSpec set
// to a distinct non-zero value: every pointer set, every slice two long
// (Phases nested two deep, the innermost nil), every number the next of
// a count and every string its own name. Its scheme kind is no
// registered kind, so canonicalization leaves it, and every variant of
// it, as it is.
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

// reachable lists every field and slice element reachable from v.
func reachable(path string, v reflect.Value) []field {
	var out []field
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				p := path + "." + f.Name
				out = append(out, field{p, v.Field(i)})
				out = append(out, reachable(p, v.Field(i))...)
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out = reachable(path, v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			p := fmt.Sprintf("%s[%d]", path, i)
			out = append(out, field{p, v.Index(i)})
			out = append(out, reachable(p, v.Index(i))...)
		}
	}
	return out
}

// TestKeyCompleteness holds the key walk to every field reachable from
// spec.RunSpec: from a run with all of them set, clearing any one field
// or slice element, or emptying a slice rather than dropping it, must
// change Key, and must change ckpt.PrefixKey unless the field is
// TotalCycles, the one field the prefix leaves out.
func TestKeyCompleteness(t *testing.T) {
	full := filled()
	if !reflect.DeepEqual(full.Canonical(), full) {
		t.Fatal("canonicalization rewrote the filled run; its keys would not see every field")
	}
	if back, ok := unwalk(simcache.KeyBytes(full)); !ok || !reflect.DeepEqual(back, full) {
		t.Fatalf("the filled run's key bytes do not decode back to it (complete %v):\n%+v", ok, back)
	}
	key, prefix := simcache.Key(full), ckpt.PrefixKey(full)
	all := reachable("run", reflect.ValueOf(&full).Elem())
	for k, f := range all {
		variant := func(name string, set func(reflect.Value)) {
			rs := filled()
			set(reachable("run", reflect.ValueOf(&rs).Elem())[k].v)
			if simcache.Key(rs) == key {
				t.Errorf("%s %s: Key unchanged", f.path, name)
			}
			switch p := ckpt.PrefixKey(rs); {
			case f.path == "run.TotalCycles" && p != prefix:
				t.Errorf("%s %s: PrefixKey changed", f.path, name)
			case f.path != "run.TotalCycles" && p == prefix:
				t.Errorf("%s %s: PrefixKey unchanged", f.path, name)
			}
		}
		if !f.v.IsZero() { // the innermost Phases are nil already
			variant("zero", func(v reflect.Value) { v.Set(reflect.Zero(v.Type())) })
		}
		if f.v.Kind() == reflect.Slice {
			variant("empty", func(v reflect.Value) { v.Set(reflect.MakeSlice(v.Type(), 0, 0)) })
		}
	}
	if len(all) < 100 {
		t.Fatalf("only %d fields reachable from the filled run", len(all))
	}
}

// TestKeyPanics pins the runs that have no key: one holding a NaN, which
// equals nothing, itself included, and one whose kernel phases nest past
// the walk's bound, which a Phases list that contains itself does.
func TestKeyPanics(t *testing.T) {
	nan := filled()
	nan.Scheme.PBS.GroupEB[1] = math.NaN()
	cyclic := filled()
	cyclic.Apps[0].Phases = cyclic.Apps
	for name, rs := range map[string]spec.RunSpec{"NaN": nan, "cyclic phases": cyclic} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Key did not panic", name)
				}
			}()
			simcache.Key(rs)
		}()
	}
}

// FuzzKeyInjective holds the key walk to its definition: two runs built
// from fuzzed bytes write equal key bytes exactly when their canonical
// forms are reflect.DeepEqual. It checks that both ways: the bytes of
// each run decode back to it (unwalk), so no two different runs can share
// them, and the two runs' bytes are equal exactly when the runs are.
func FuzzKeyInjective(f *testing.F) {
	f.Add([]byte{2, 1, 0, 3, 1, 2, 2, 5}, []byte{2, 1, 0, 3, 1, 2, 2, 5})
	f.Add([]byte{1, 2, 1, 0, 0, 1, 15, 1, 1}, []byte{1, 2, 1, 0, 0, 1, 15, 1, 2})
	f.Add([]byte{3, 2, 1, 1, 0, 2, 2, 3, 7}, []byte{3, 1, 2, 1, 0, 2, 2, 3, 7})
	f.Add([]byte{0, 0, 0, 1, 2}, []byte{0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		x, y := fuzzRun(a).Canonical(), fuzzRun(b).Canonical()
		bx := simcache.KeyBytes(x)
		if back, ok := unwalk(bx); !ok || !reflect.DeepEqual(back, x) {
			t.Fatalf("key bytes do not decode back to the run (complete %v):\n%+v\n%+v", ok, back, x)
		}
		same := bytes.Equal(bx, simcache.KeyBytes(y))
		if deep := reflect.DeepEqual(x, y); same != deep {
			t.Fatalf("equal key bytes %v, DeepEqual %v:\n%+v\n%+v", same, deep, x, y)
		}
	})
}

// unwalk decodes key bytes into a run by reflection, reading the layout
// HashRun's walk documents: each struct's field count and then its
// fields in declaration order, a presence byte ahead of each pointer and
// slice, a length ahead of each slice and string, 8-byte little-endian
// numbers and one-byte bools. ok is false unless b is exactly one such
// encoding.
func unwalk(b []byte) (rs spec.RunSpec, ok bool) {
	r := walkReader{b: b, ok: true}
	r.value(reflect.ValueOf(&rs).Elem())
	return rs, r.ok && len(r.b) == 0
}

type walkReader struct {
	b  []byte
	ok bool
}

func (r *walkReader) take(n uint64) []byte {
	if !r.ok || n > uint64(len(r.b)) {
		r.ok, r.b = false, nil
		return make([]byte, 8)
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *walkReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

func (r *walkReader) flag() bool {
	c := r.take(1)[0]
	r.ok = r.ok && c <= 1
	return c == 1
}

func (r *walkReader) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		r.ok = r.ok && r.u64() == uint64(v.NumField())
		for i := 0; i < v.NumField() && r.ok; i++ {
			r.value(v.Field(i))
		}
	case reflect.Pointer:
		if r.flag() {
			v.Set(reflect.New(v.Type().Elem()))
			r.value(v.Elem())
		}
	case reflect.Slice:
		if r.flag() {
			n := r.u64()
			if n > uint64(len(r.b)) {
				r.ok = false
				return
			}
			v.Set(reflect.MakeSlice(v.Type(), int(n), int(n)))
			for i := 0; i < int(n) && r.ok; i++ {
				r.value(v.Index(i))
			}
		}
	case reflect.String:
		v.SetString(string(r.take(r.u64())))
	case reflect.Int:
		v.SetInt(int64(r.u64()))
	case reflect.Uint64:
		v.SetUint(r.u64())
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(r.u64()))
	case reflect.Bool:
		v.SetBool(r.flag())
	default:
		panic(fmt.Sprintf("unwalk: no layout for a %s", v.Type()))
	}
}

// fuzzRun builds a run from data, one byte per choice; a read past the
// end is 0.
func fuzzRun(data []byte) spec.RunSpec {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	num := func() int { return next()%4 - 1 }
	flt := func() float64 { return []float64{0, math.Copysign(0, -1), 1, 0.5, math.Inf(1)}[next()%5] }
	str := func() string {
		b := make([]byte, next()%4)
		for i := range b {
			b[i] = []byte{0, 1, 'a'}[next()%3] // 0 and 1 are also presence bytes
		}
		return string(b)
	}
	// length returns -1 for a nil slice, else its length.
	length := func() int { return next()%4 - 1 }
	ints := func() []int {
		n := length()
		if n < 0 {
			return nil
		}
		vs := make([]int, n)
		for i := range vs {
			vs[i] = num()
		}
		return vs
	}
	bools := func() []bool {
		n := length()
		if n < 0 {
			return nil
		}
		vs := make([]bool, n)
		for i := range vs {
			vs[i] = next()%2 == 1
		}
		return vs
	}
	var params func(depth int) []kernel.Params
	params = func(depth int) []kernel.Params {
		n := length()
		if n < 0 || depth > 2 {
			return nil
		}
		ps := make([]kernel.Params, n)
		for i := range ps {
			ps[i] = kernel.Params{Name: str(), Rm: flt(), ALUDelay: num(), SharedSeq: next()%2 == 1,
				KernelInsts: uint64(next() % 3), Phases: params(depth + 1)}
		}
		return ps
	}

	rs := spec.RunSpec{Config: config.Default(), TotalCycles: 60_000, WarmupCycles: 10_000}
	rs.Config.L1.Ways = num()
	rs.Apps = params(0)
	rs.CoresPerApp = ints()
	kinds := []string{"", spec.KindStatic, "pbs-ws", "ccws"}
	if k := next() % 5; k < len(kinds) {
		rs.Scheme.Kind = kinds[k]
	} else {
		rs.Scheme.Kind = str()
	}
	shape := next()
	if shape&1 != 0 {
		rs.Scheme.Static = &spec.StaticSpec{TLPs: ints(), Bypass: bools(), Label: str()}
	}
	if shape&2 != 0 {
		rs.Scheme.PBS = &spec.PBSSpec{Scaling: str(), SweepLevels: ints(), SettleWindows: num(), DriftThreshold: flt()}
		if n := length(); n >= 0 {
			rs.Scheme.PBS.GroupEB = make([]float64, n)
			for i := range rs.Scheme.PBS.GroupEB {
				rs.Scheme.PBS.GroupEB[i] = flt()
			}
		}
	}
	if shape&4 != 0 {
		rs.Scheme.CCWS = &tlp.CCWSKnobs{HighVTA: flt(), Hysteresis: num()}
	}
	if shape&8 != 0 {
		rs.Scheme.DynCTA = &tlp.DynCTAKnobs{LowUtil: flt()}
	}
	rs.WindowCycles = uint64(next() % 3)
	rs.DesignatedSampling = next()%2 == 1
	rs.VictimTags = num()
	if n := length(); n >= 0 {
		rs.L2WayPartition = make([][]bool, n)
		for i := range rs.L2WayPartition {
			rs.L2WayPartition[i] = bools()
		}
	}
	return rs
}
