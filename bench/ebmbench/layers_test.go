package main

import (
	"math"
	"testing"
	"time"

	"ebm/internal/obs"
)

func span(id, parent uint64, name string, start, end int) obs.SpanData {
	return obs.SpanData{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	for _, tc := range []struct {
		name string
		kids []obs.SpanData
		want time.Duration // parent self time; the parent spans 0..100ms
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []obs.SpanData{span(2, 1, "k", 10, 30), span(3, 1, "k", 50, 60)}, 70 * time.Millisecond},
		{"overlapping", []obs.SpanData{span(2, 1, "k", 10, 40), span(3, 1, "k", 20, 60)}, 50 * time.Millisecond},
		{"parallel", []obs.SpanData{span(2, 1, "k", 10, 50), span(3, 1, "k", 10, 50), span(4, 1, "k", 20, 30)}, 60 * time.Millisecond},
		{"nested inside another", []obs.SpanData{span(2, 1, "k", 0, 90), span(3, 1, "k", 10, 20)}, 10 * time.Millisecond},
		{"clipped to parent", []obs.SpanData{span(2, 1, "k", 80, 130)}, 80 * time.Millisecond},
	} {
		spans := append([]obs.SpanData{span(1, 0, "parent", 0, 100)}, tc.kids...)
		if got := selfTimes(spans)["parent"]; got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAdoptPooledMakesPoolDoSelfTheWait(t *testing.T) {
	// One run: a cache miss, then 30ms queued in the pool before the
	// execution and the put, recorded as pool.do's siblings.
	spans := []obs.SpanData{
		span(1, 0, "run", 0, 105),
		span(2, 1, "cache.get", 0, 5),
		span(3, 1, "pool.do", 5, 100),
		span(4, 1, "execute", 35, 90),
		span(5, 1, "cache.put", 90, 98),
		// A second run's execute outside this pool.do stays put.
		span(6, 0, "run", 200, 300),
		span(7, 6, "execute", 200, 300),
	}
	self := selfTimes(adoptPooled(spans))
	if got, want := self["pool.do"], 32*time.Millisecond; got != want {
		t.Errorf("pool.do self %v, want %v", got, want)
	}
	if got, want := self["run"], 5*time.Millisecond; got != want {
		t.Errorf("run self %v, want %v (its children are cache.get and pool.do)", got, want)
	}
	if got, want := self["execute"], 155*time.Millisecond; got != want {
		t.Errorf("execute self %v, want %v", got, want)
	}
}

const cannedTop = `File: ebmbench
Type: cpu
Time: Oct 16, 2026 at 1:22am (UTC)
Duration: 10.05s, Total samples = 2.50s (24.88%)
Showing nodes accounting for 2.50s, 100% of 2.50s total
      flat  flat%   sum%        cum   cum%
     0.80s 32.00% 32.00%      0.90s 36.00%  ebm/internal/dram.(*Partition).Tick
     500ms 20.00% 52.00%      600ms 24.00%  ebm/internal/simcache.(*Cache).get
     400ms 16.00% 68.00%      400ms 16.00%  ebm/internal/sim.(*Simulator).RunContext
     300ms 12.00% 80.00%      300ms 12.00%  runtime.mallocgc
     200ms  8.00% 88.00%      200ms  8.00%  internal/runtime/syscall.Syscall6
     100ms  4.00% 92.00%      150ms  6.00%  encoding/json.(*decodeState).object
      50ms  2.00% 94.00%       50ms  2.00%  reflect.Value.Field
      50ms  2.00% 96.00%       50ms  2.00%  ebm/internal/gpu.(*Core).Tick (inline)
      40ms  1.60% 97.60%       40ms  1.60%  ebm/internal/metrics.WS
      30ms  1.20% 98.80%       30ms  1.20%  sort.insertionSort
      30ms  1.20%   100%       30ms  1.20%  ebm/internal/search.BuildGrid.func1
         0     0%   100%      2.50s   100%  ebm/bench/ebmbench.main
`

func TestFoldTopSharesByLayer(t *testing.T) {
	shares, err := foldTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dram": 0.32, "simcache": 0.20, "sim": 0.16, "goruntime": 0.12, "syscall": 0.08,
		"encoding": 0.06, "gpu": 0.02, "search": 0.012, "other": 0.028,
	}
	sum := 0.0
	for _, l := range cpuLayers {
		got := shares[l]
		sum += got
		if math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("%s share %v, want %v", l, got, want[l])
		}
	}
	if len(shares) != len(cpuLayers) {
		t.Errorf("%d layers folded, want all %d", len(shares), len(cpuLayers))
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01", sum)
	}
}

func TestFoldTopRejectsEmptyProfile(t *testing.T) {
	if _, err := foldTop("Duration: 1s, Total samples = 0 ( 0%)\n"); err == nil {
		t.Fatal("empty profile folded without error")
	}
}

func TestParseSecondsUnits(t *testing.T) {
	for in, want := range map[string]float64{
		"0": 0, "1.50s": 1.5, "20ms": 0.02, "15us": 15e-6, "15µs": 15e-6, "900ns": 9e-7, "1.5mins": 90, "2hrs": 7200,
	} {
		got, err := parseSeconds(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseSeconds("12parsecs"); err == nil {
		t.Error("unknown unit parsed")
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm(`# HELP ebm_core_idle_cycles_total x
# TYPE ebm_core_idle_cycles_total counter
ebm_core_idle_cycles_total{core="0",app="0"} 10
ebm_core_idle_cycles_total{core="1",app="1"} 32
ebm_mshr_stall_cycles_total{level="l1"} 5
ebm_mshr_stall_cycles_total{level="l2"} 7
ebm_mem_cycle 1.5e+06
`)
	for k, want := range map[string]float64{
		"ebm_core_idle_cycles_total":              42,
		`ebm_mshr_stall_cycles_total{level="l1"}`: 5,
		"ebm_mshr_stall_cycles_total":             12,
		"ebm_mem_cycle":                           1.5e6,
	} {
		if m[k] != want {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}
