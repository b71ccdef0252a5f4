package simcache

import (
	"testing"

	"ebm/internal/config"
	"ebm/internal/metrics"
	"ebm/internal/sim"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

// benchSpec is a paper-figure run: the BLK_TRD co-schedule under PBS-WS
// on the Table I machine.
func benchSpec() spec.RunSpec {
	return spec.RunSpec{
		Config:       config.Default(),
		Apps:         workload.MustMake("BLK", "TRD").Apps,
		Scheme:       spec.PBS(metrics.ObjWS),
		TotalCycles:  60_000,
		WarmupCycles: 10_000,
	}
}

// benchResult is a two-application result whose floats take strconv's
// fast paths, as a simulated one does.
func benchResult() sim.Result {
	app := func(name string, ipc float64) sim.AppResult {
		return sim.AppResult{
			Name: name, Insts: 4_718_592, IPC: ipc, L1MR: 0.8735, L2MR: 0.61279296875,
			CMR: 0.5352783203125, BW: 0.3271484375, EB: 0.61118507385253906, RowHitRate: 0.708984375,
			AvgLatency: 412.33056640625, MemStallFrac: 0.4912109375, IssueUtil: 0.30029296875,
			AvgTLP: 23.5, FinalTLP: 24, Kernels: 3,
		}
	}
	return sim.Result{
		Cycles:  50_000,
		TotalBW: 0.654296875,
		Apps:    []sim.AppResult{app("BLK", 94.369140625), app("TRD", 31.45703125)},
		Windows: 24,
	}
}

var benchKeySink string

// BenchmarkKey is one run key: canonicalization, the key's bytes and
// their hash.
func BenchmarkKey(b *testing.B) {
	rs := benchSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKeySink = Key(rs)
	}
}

// BenchmarkCacheGet is one cache hit: the entry file's open, reads and
// close, and its decode.
func BenchmarkCacheGet(b *testing.B) {
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := Key(benchSpec())
	if err := c.Put(key, benchResult()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}
