package experiments

import (
	"bytes"
	"strings"
	"testing"

	"ebm/internal/config"
	"ebm/internal/metrics"
	"ebm/internal/workload"
)

// testEnv builds a miniature environment: a 4-core machine, short runs,
// and a two-workload evaluation set, so the experiment plumbing can be
// exercised quickly.
func testEnv(t *testing.T) *Env {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	env, err := NewEnv(nil, Options{
		Config:       cfg,
		GridCycles:   8_000,
		GridWarmup:   1_000,
		EvalCycles:   30_000,
		EvalWarmup:   1_000,
		WindowCycles: 1_000,
		Workloads: []workload.Workload{
			workload.MustMake("BLK", "BFS"),
			workload.MustMake("FFT", "TRD"),
		},
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12",
		"cores", "l2part", "3app", "ablation", "extras",
	}
	if len(reg) != len(want) {
		t.Fatalf("%d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("fig9"); !ok {
		t.Fatal("ByID miss")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID invented an experiment")
	}
}

func TestStaticTables(t *testing.T) {
	env := testEnv(t)
	for _, id := range []string{"table1", "table2", "table3", "table4", "fig8"} {
		x, _ := ByID(id)
		var buf bytes.Buffer
		if err := x.Run(env, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestTable1MentionsTiming(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	if err := Table1(env, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tCL=12", "FR-FCFS", "GDDR5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestEvalWorkloadProducesAllSchemes(t *testing.T) {
	env := testEnv(t)
	ev, err := env.EvalWorkload(workload.MustMake("BLK", "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		SchBestTLP, SchMaxTLP, SchDynCTA, SchModBypass,
		SchPBSWS, SchPBSFI, SchPBSHS,
		SchPBSWSOff, SchPBSFIOff, SchPBSHSOff,
		SchBFWS, SchBFFI, SchBFHS, SchOptWS, SchOptFI, SchOptHS,
	} {
		o, ok := ev.Outcomes[s]
		if !ok {
			t.Errorf("scheme %s missing", s)
			continue
		}
		if o.WS <= 0 || o.WS > 2.5 {
			t.Errorf("%s WS = %v out of range", s, o.WS)
		}
		if o.FI < 0 || o.FI > 1.0001 {
			t.Errorf("%s FI = %v out of range", s, o.FI)
		}
	}
	// optWS is exhaustive over the grid: no static scheme beats it at
	// grid length; at eval length allow small measurement drift.
	opt := ev.Outcomes[SchOptWS].WS
	if ev.Outcomes[SchBestTLP].WS > opt*1.15 {
		t.Errorf("++bestTLP (%v) implausibly above optWS (%v)", ev.Outcomes[SchBestTLP].WS, opt)
	}
}

func TestSchemePanelOutput(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	if err := env.schemePanel(&buf, metrics.ObjWS,
		[]string{SchDynCTA, SchPBSWS, SchOptWS}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Gmean(all)") {
		t.Fatal("panel missing gmean row")
	}
	if !strings.Contains(out, "BLK_BFS") || !strings.Contains(out, "FFT_TRD") {
		t.Fatal("panel missing workload rows")
	}
}

func TestGridCaching(t *testing.T) {
	env := testEnv(t)
	wl := workload.MustMake("BLK", "BFS")
	g1, err := env.Grid(wl)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := env.Grid(wl)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("grid not cached")
	}
}

func TestSortedSchemes(t *testing.T) {
	m := map[string]Outcome{
		SchOptWS: {}, SchBestTLP: {}, "zzz-custom": {}, SchPBSWS: {},
	}
	got := sortedSchemes(m)
	if got[0] != SchBestTLP {
		t.Fatalf("order %v", got)
	}
	if got[len(got)-1] != "zzz-custom" {
		t.Fatalf("custom scheme not last: %v", got)
	}
}

func TestFmtCombo(t *testing.T) {
	if fmtCombo([]int{2, 8}) != "(2,8)" {
		t.Fatal("fmtCombo")
	}
	if fmtCombo(nil) != "dynamic" {
		t.Fatal("fmtCombo nil")
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("a", "bb")
	tb.row("1", "2")
	tb.rowf("x", "%.1f", 3.14159)
	var buf bytes.Buffer
	tb.write(&buf)
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "3.1") {
		t.Fatalf("table output: %s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("%d lines", len(lines))
	}
}

func TestRenderASCII(t *testing.T) {
	var s []point
	for i := 0; i < 100; i++ {
		s = append(s, point{uint64(i * 1000), float64(i % 25)})
	}
	out := renderASCII(s, 10, 24)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d buckets, want 10", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, "#") && !strings.HasSuffix(strings.TrimSpace(l), "0.00") {
			t.Fatalf("bucket line without bars: %q", l)
		}
	}
	if renderASCII(nil, 10, 1) != "" {
		t.Fatal("empty series should render empty")
	}
	// Auto max.
	if renderASCII(s, 5, 0) == "" {
		t.Fatal("auto-max render empty")
	}
}

func TestRenderASCIIClampsBars(t *testing.T) {
	s := []point{{0, 1e9}} // way above max
	out := renderASCII(s, 1, 10)
	if strings.Count(out, "#") > 40 {
		t.Fatal("bar length not clamped")
	}
}
