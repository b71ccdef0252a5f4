package sim_test

import (
	"math"
	"reflect"
	"testing"

	"ebm/internal/config"
	pbscore "ebm/internal/core"
	"ebm/internal/metrics"
	"ebm/internal/sim"
	"ebm/internal/workload"
)

// goldenApp holds one application's expected Result fields with every
// float64 stored as its exact IEEE-754 bit pattern (math.Float64bits), so
// the comparison is bit-identical, not epsilon-based.
type goldenApp struct {
	name         string
	insts        uint64
	ipc          uint64
	l1mr         uint64
	l2mr         uint64
	cmr          uint64
	bw           uint64
	eb           uint64
	rowHitRate   uint64
	avgLatency   uint64
	memStallFrac uint64
	issueUtil    uint64
	avgTLP       uint64
	finalTLP     int
	kernels      uint64
}

type goldenRun struct {
	label   string
	opts    func() sim.Options
	cycles  uint64
	windows uint64
	totalBW uint64
	apps    []goldenApp
	record  *goldenRecord // nil: the run carries no decision record
}

// goldenRecord pins a run's decision record by its counts and its number
// of change points.
type goldenRecord struct {
	changes                    int
	searches, restarts, drifts uint64
}

// goldenRuns pins the engine's exact output for three configurations. The bit
// patterns were captured from the pre-optimization (map-MSHR, heap-request,
// always-tick) engine at the seed commit; the pooled/fast-forward engine
// must reproduce them exactly. If an intentional model change shifts these
// values, re-capture them with a small program that prints
// math.Float64bits for every Result field.
var goldenRuns = []goldenRun{
	{
		label: "pbs-ws/BLK_TRD",
		opts: func() sim.Options {
			wl := workload.MustMake("BLK", "TRD")
			return sim.Options{
				Config:             config.Default(),
				Apps:               wl.Apps,
				Manager:            pbscore.NewPBS(metrics.ObjWS),
				TotalCycles:        60_000,
				WarmupCycles:       10_000,
				WindowCycles:       2_500,
				DesignatedSampling: true,
			}
		},
		cycles:  50000,
		windows: 24,
		totalBW: 0x3fe2e9b861ceb950,
		apps: []goldenApp{
			{
				name: "BLK", insts: 25196,
				ipc: 0x3fe0201cd5f99c39, l1mr: 0x3ff0000000000000,
				l2mr: 0x3ff0000000000000, cmr: 0x3ff0000000000000,
				bw: 0x3fd3030a7cfd749d, eb: 0x3fd3030a7cfd749d,
				rowHitRate: 0x3fdaeadf978acc5f, avgLatency: 0x408151ca5327a171,
				memStallFrac: 0x3fee0e757928e0ca, issueUtil: 0x3fa0201cd5f99c39,
				avgTLP: 0x40279210385c67e0, finalTLP: 24,
			},
			{
				name: "TRD", insts: 11663,
				ipc: 0x3fcddb76b3bb83cf, l1mr: 0x3ff0000000000000,
				l2mr: 0x3ff0000000000000, cmr: 0x3ff0000000000000,
				bw: 0x3fd2d066469ffe04, eb: 0x3fd2d066469ffe04,
				rowHitRate: 0x3fdc34e234efb7cd, avgLatency: 0x407ffe14d90a070e,
				memStallFrac: 0x3fef10624dd2f1aa, issueUtil: 0x3f8ddb76b3bb83cf,
				avgTLP: 0x403490917d6b65aa, finalTLP: 1,
			},
		},
		record: &goldenRecord{changes: 8},
	},
	{
		label: "maxtlp/BFS_FFT",
		opts: func() sim.Options {
			wl := workload.MustMake("BFS", "FFT")
			return sim.Options{
				Config:       config.Default(),
				Apps:         wl.Apps,
				TotalCycles:  40_000,
				WarmupCycles: 5_000,
			}
		},
		cycles:  35000,
		windows: 8,
		totalBW: 0x3fdaaa4fe1806bce,
		apps: []goldenApp{
			{
				name: "BFS", insts: 23676,
				ipc: 0x3fe5a5897336f1e6, l1mr: 0x3fe80a63f06a1761,
				l2mr: 0x3fe6e7af49388943, cmr: 0x3fe13533668d25fa,
				bw: 0x3fd631ea19fa0f56, eb: 0x3fe4a319e9661f9e,
				rowHitRate: 0x3fc1df15d374084f, avgLatency: 0x407e9bda899678e2,
				memStallFrac: 0x3fed5575ca0cc191, issueUtil: 0x3fa5a5897336f1e6,
				avgTLP: 0x4038000000000000, finalTLP: 24,
			},
			{
				name: "FFT", insts: 12882,
				ipc: 0x3fd78e3f8be85c38, l1mr: 0x3fe1697d6ccffd58,
				l2mr: 0x3fec7b4644363da3, cmr: 0x3fdefec2ea60927d,
				bw: 0x3fb1e1971e1971e2, eb: 0x3fc275fdfb492473,
				rowHitRate: 0x3fce94fba3064462, avgLatency: 0x4082a43984af2b5b,
				memStallFrac: 0x3feecd2e2af3117f, issueUtil: 0x3f978e3f8be85c38,
				avgTLP: 0x4038000000000000, finalTLP: 24,
			},
		},
	},
	{
		// PBS-WS on BFS_FFT long enough to sweep, tune and hold a stable
		// pick (64 windows): the final TLPs follow from the EB values the
		// window samples carried, so the bits pin what PBS samples. The
		// pbs-ws/BLK_TRD run ends mid-sweep, where decisions ignore them.
		label: "pbs-ws/BFS_FFT",
		opts: func() sim.Options {
			wl := workload.MustMake("BFS", "FFT")
			return sim.Options{
				Config:             config.Default(),
				Apps:               wl.Apps,
				Manager:            pbscore.NewPBS(metrics.ObjWS),
				TotalCycles:        160_000,
				WarmupCycles:       10_000,
				WindowCycles:       2_500,
				DesignatedSampling: true,
			}
		},
		cycles:  150000,
		windows: 64,
		totalBW: 0x3fda07a775cfccb2,
		apps: []goldenApp{
			{
				name: "BFS", insts: 67559,
				ipc: 0x3fdcd33e8f4032ae, l1mr: 0x3fe2a1b005a4dcc2,
				l2mr: 0x3fe98e6bcb059da5, cmr: 0x3fddc27b88b6c936,
				bw: 0x3fcc7f838c3c7d08, eb: 0x3fdea4b7e29fa6a8,
				rowHitRate: 0x3fb6abe1df42442a, avgLatency: 0x407b20f3c56b12d0,
				memStallFrac: 0x3fedf4570dbc3990, issueUtil: 0x3f9cd33e8f4032ae,
				avgTLP: 0x4024b33333333333, finalTLP: 1,
			},
			{
				name: "FFT", insts: 267859,
				ipc: 0x3ffc9256200edad6, l1mr: 0x3fd8bcf14adf2f9e,
				l2mr: 0x3fe63d6d2c4ef4be, cmr: 0x3fd131627546e6be,
				bw: 0x3fc78fcb5f631c5d, eb: 0x3fe5ed492e484d29,
				rowHitRate: 0x3fd25c47abfe82cd, avgLatency: 0x407569f910530ede,
				memStallFrac: 0x3fe94902de00d1b7, issueUtil: 0x3fbc9256200edad6,
				avgTLP: 0x4026578492e8ed06, finalTLP: 4,
			},
		},
		record: &goldenRecord{changes: 19, searches: 1},
	},
}

func checkBits(t *testing.T, label, field string, got float64, want uint64) {
	t.Helper()
	if math.Float64bits(got) != want {
		t.Errorf("%s: %s = %v (%#x), want bits %#x (%v)",
			label, field, got, math.Float64bits(got), want, math.Float64frombits(want))
	}
}

// TestGoldenResults proves the optimized engine is bit-identical to the
// original: pooled requests, fixed-slot MSHRs and idle fast-forward must
// not change a single output bit for a fixed seed and configuration.
func TestGoldenResults(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(g.label, func(t *testing.T) {
			s, err := sim.New(g.opts())
			if err != nil {
				t.Fatal(err)
			}
			r := s.Run()
			if r.Cycles != g.cycles || r.Windows != g.windows {
				t.Errorf("cycles/windows = %d/%d, want %d/%d",
					r.Cycles, r.Windows, g.cycles, g.windows)
			}
			checkBits(t, g.label, "TotalBW", r.TotalBW, g.totalBW)
			if len(r.Apps) != len(g.apps) {
				t.Fatalf("got %d apps, want %d", len(r.Apps), len(g.apps))
			}
			for i, want := range g.apps {
				a := r.Apps[i]
				al := g.label + "/" + want.name
				if a.Name != want.name {
					t.Errorf("%s: name %q", al, a.Name)
				}
				if a.Insts != want.insts {
					t.Errorf("%s: Insts = %d, want %d", al, a.Insts, want.insts)
				}
				checkBits(t, al, "IPC", a.IPC, want.ipc)
				checkBits(t, al, "L1MR", a.L1MR, want.l1mr)
				checkBits(t, al, "L2MR", a.L2MR, want.l2mr)
				checkBits(t, al, "CMR", a.CMR, want.cmr)
				checkBits(t, al, "BW", a.BW, want.bw)
				checkBits(t, al, "EB", a.EB, want.eb)
				checkBits(t, al, "RowHitRate", a.RowHitRate, want.rowHitRate)
				checkBits(t, al, "AvgLatency", a.AvgLatency, want.avgLatency)
				checkBits(t, al, "MemStallFrac", a.MemStallFrac, want.memStallFrac)
				checkBits(t, al, "IssueUtil", a.IssueUtil, want.issueUtil)
				checkBits(t, al, "AvgTLP", a.AvgTLP, want.avgTLP)
				if a.FinalTLP != want.finalTLP {
					t.Errorf("%s: FinalTLP = %d, want %d", al, a.FinalTLP, want.finalTLP)
				}
				if a.Kernels != want.kernels {
					t.Errorf("%s: Kernels = %d, want %d", al, a.Kernels, want.kernels)
				}
			}
			checkRecord(t, g, r)
		})
	}
}

func checkRecord(t *testing.T, g goldenRun, r sim.Result) {
	t.Helper()
	d := r.Decisions
	switch {
	case g.record == nil && d != nil:
		t.Errorf("decision record %+v, want none", *d)
	case g.record == nil:
	case d == nil:
		t.Errorf("no decision record, want %+v", *g.record)
	default:
		got := goldenRecord{len(d.Changes), d.Searches, d.Restarts, d.Drifts}
		if got != *g.record {
			t.Errorf("decision record: %d changes, %d searches, %d restarts, %d drifts; want %+v",
				got.changes, got.searches, got.restarts, got.drifts, *g.record)
		}
	}
}

// TestGoldenDeterminism runs the same workload twice through fresh
// simulators and requires structurally identical Results: no map-iteration
// order, pool state or fast-forward bookkeeping may leak into the output.
func TestGoldenDeterminism(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(g.label, func(t *testing.T) {
			run := func() sim.Result {
				s, err := sim.New(g.opts())
				if err != nil {
					t.Fatal(err)
				}
				return s.Run()
			}
			r1, r2 := run(), run()
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("two identical runs diverged:\nfirst:  %+v\nsecond: %+v", r1, r2)
			}
		})
	}
}
