package simcache

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"ebm/internal/sim"
)

// TestDecodeEntryMatchesUnmarshal holds decodeEntry to encoding/json on
// the bytes Put writes, and to rejecting every other layout of them.
func TestDecodeEntryMatchesUnmarshal(t *testing.T) {
	three := awkwardResult()
	three.Apps = append(three.Apps,
		sim.AppResult{Name: `<a href="x">&amp;</a>`, Insts: math.MaxUint64, IPC: 1e21, FinalTLP: -1, L1MR: math.Copysign(0, -1)},
		sim.AppResult{Name: "sep\u2028\u2029 back\\slash tab\t naïve \xff\xfe"},
	)
	results := map[string]sim.Result{
		"awkward":                awkwardResult(),
		"zero":                   {},
		"empty apps":             {Apps: []sim.AppResult{}},
		"three apps":             three,
		"record":                 recordResult(),
		"empty record":           {Decisions: &sim.Decisions{}},
		"record without changes": {Decisions: &sim.Decisions{Changes: []sim.Change{}, Drifts: 1}},
	}
	for name, r := range results {
		b := mustJSON(entry{Schema: SchemaVersion, Key: "0123456789abcdef", Result: r})
		got, err := decodeEntry(b)
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, b)
			continue
		}
		var want entry
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decodeEntry\n%+v\njson.Unmarshal\n%+v", name, got, want)
		}

		for i := range b {
			if _, err := decodeEntry(b[:i]); err == nil {
				t.Errorf("%s: accepted the entry cut at byte %d of %d", name, i, len(b))
			}
		}
	}

	e := entry{Schema: SchemaVersion, Key: "k", Result: awkwardResult()}
	b := mustJSON(e)
	indented, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rejects := map[string][]byte{
		"indented":  indented,
		"reordered": mustJSON(map[string]any{"schema": e.Schema, "key": e.Key, "result": e.Result}),
		"unknown field": mustJSON(struct {
			entry
			Extra int `json:"extra"`
		}{entry: e}),
		"trailing newline": append(bytes.Clone(b), '\n'),
		"trailing value":   append(bytes.Clone(b), "{}"...),
		"plus sign":        bytes.Replace(b, []byte(`"FinalTLP":24`), []byte(`"FinalTLP":+24`), 1),
		"leading zero":     bytes.Replace(b, []byte(`"Windows":123`), []byte(`"Windows":0123`), 1),
		"bare fraction":    bytes.Replace(b, []byte(`"IssueUtil":0.25`), []byte(`"IssueUtil":.25`), 1),
		"hex float":        bytes.Replace(b, []byte(`"IssueUtil":0.25`), []byte(`"IssueUtil":0x1p-2`), 1),
		"inf":              bytes.Replace(b, []byte(`"IssueUtil":0.25`), []byte(`"IssueUtil":inf`), 1),
		"uint exponent":    bytes.Replace(b, []byte(`"Windows":123`), []byte(`"Windows":1e2`), 1),
		"control byte":     bytes.Replace(b, []byte(`"BLK"`), []byte("\"B\x01K\""), 1),
	}
	rb := mustJSON(entry{Schema: SchemaVersion, Key: "k", Result: recordResult()})
	for name, data := range map[string][]byte{
		"record null":        bytes.Replace(rb, []byte(`"Decisions":{`), []byte(`"Decisions":null,"x":{`), 1),
		"fields reordered":   bytes.Replace(rb, []byte(`"Searches":3,"Restarts":1`), []byte(`"Restarts":1,"Searches":3`), 1),
		"searching a string": bytes.Replace(rb, []byte(`"Searching":true`), []byte(`"Searching":"true"`), 1),
		"tlp a float":        bytes.Replace(rb, []byte(`"TLP":[24,1]`), []byte(`"TLP":[24,1.5]`), 1),
	} {
		rejects[name] = data
	}
	for name, data := range rejects {
		if bytes.Equal(data, b) {
			t.Fatalf("%s: the case did not change the entry", name)
		}
		if _, err := decodeEntry(data); err == nil {
			t.Errorf("%s: accepted\n%s", name, data)
		}
	}
}

// recordResult is a result carrying a decision record: TLP lists nil,
// empty and set, a bypass mask, and both searching flags.
func recordResult() sim.Result {
	r := awkwardResult()
	r.Decisions = &sim.Decisions{
		Changes: []sim.Change{
			{Cycle: 0, TLP: []int{24, 24}, Searching: true},
			{Cycle: 2500, TLP: []int{24, 1}, Bypass: []bool{false, true}, Searching: true},
			{Cycle: 5000, TLP: []int{}},
			{Cycle: 1 << 62},
		},
		Searches: 3, Restarts: 1, Drifts: math.MaxUint64,
	}
	return r
}

// FuzzDecodeEntry checks decodeEntry against encoding/json both ways:
// whatever bytes it accepts, json.Unmarshal accepts and decodes alike,
// and whatever entry json.Marshal writes from the fuzzed scalars and
// names, it accepts and decodes alike.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(mustJSON(entry{Schema: SchemaVersion, Key: "0123456789abcdef", Result: awkwardResult()}), "BLK", uint64(1)<<62, 1e-17, 24)
	f.Add(mustJSON(entry{Schema: SchemaVersion, Key: "k"}), "", uint64(0), 0.0, 0)
	f.Add([]byte(`{"schema":2,"key":"k","result":{"Cycles":1,"TotalBW":-0,"Apps":[],"Windows":0}}`), "<>&\u2028\"\\", uint64(math.MaxUint64), math.SmallestNonzeroFloat64, -1)
	f.Add([]byte(`{"schema":2,"key":"\u006b","result":{"Cycles":1,"TotalBW":1E+2,"Apps":null,"Windows":0}}`), "\xff", uint64(7), 1e21, math.MaxInt)
	f.Fuzz(func(t *testing.T, data []byte, name string, n uint64, x float64, tlp int) {
		if got, err := decodeEntry(data); err == nil {
			var want entry
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("decodeEntry accepted what json.Unmarshal rejects (%v):\n%q", err, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q:\ndecodeEntry    %+v\njson.Unmarshal %+v", data, got, want)
			}
		}

		app := sim.AppResult{
			Name: name, Insts: n, IPC: x, L1MR: -x, L2MR: x / 3, CMR: x * 7, BW: x, EB: x,
			RowHitRate: x, AvgLatency: x, MemStallFrac: x, IssueUtil: x, AvgTLP: x,
			FinalTLP: tlp, Kernels: ^n,
		}
		e := entry{Schema: tlp, Key: name, Result: sim.Result{
			Cycles: n, TotalBW: x, Windows: n / 2,
			Apps: []sim.AppResult{app, {Name: name + name, FinalTLP: -tlp}},
		}}
		if tlp%2 != 0 {
			e.Result.Decisions = &sim.Decisions{
				Changes: []sim.Change{
					{Cycle: n, TLP: []int{tlp, -tlp}, Searching: x > 0},
					{Cycle: ^n, TLP: []int{tlp}, Bypass: []bool{x < 0, true}},
				},
				Searches: n, Restarts: n / 3, Drifts: ^n,
			}
		}
		b, err := json.Marshal(e)
		if err != nil {
			return // NaN and ±Inf have no JSON form, so Put never writes them
		}
		got, err := decodeEntry(b)
		if err != nil {
			t.Fatalf("rejected json.Marshal's own output (%v):\n%s", err, b)
		}
		var want entry
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\ndecodeEntry    %+v\njson.Unmarshal %+v", b, got, want)
		}
	})
}
