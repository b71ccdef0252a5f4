package experiments

import (
	"fmt"
	"io"

	"ebm/internal/config"
	pbscore "ebm/internal/core"
	"ebm/internal/metrics"
	"ebm/internal/workload"
)

// Fig6 reproduces the pattern illustration for BLK_TRD: EB-WS and per-app
// EB across the full TLP grid, shown as iso-TLP curves. The pattern the
// paper exploits is the consistency of the inflection along one axis.
func Fig6(e *Env, w io.Writer) error {
	header(w, "Fig. 6: EB-WS and per-app EB patterns for BLK_TRD")
	wl := workload.MustMake("BLK", "TRD")
	g, err := e.Grid(wl)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "(a) EB-WS; rows = TLP-BLK, columns = TLP-TRD\n\n")
	t := newTable(append([]string{"TLP-BLK\\TRD"}, levelHeaders(g.Levels)...)...)
	var ebBuf []float64 // reused across the 64 grid cells
	for _, t0 := range g.Levels {
		cells := []string{fmt.Sprint(t0)}
		for _, t1 := range g.Levels {
			r, err := g.At([]int{t0, t1})
			if err != nil {
				return err
			}
			ebBuf = r.EBsInto(ebBuf[:0])
			cells = append(cells, fmt.Sprintf("%.3f", metrics.EBWS(ebBuf)))
		}
		t.row(cells...)
	}
	t.write(w)

	for app := 0; app < 2; app++ {
		fmt.Fprintf(w, "\n(b%d) EB-%s; rows = TLP-BLK, columns = TLP-TRD\n\n", app+1, wl.Apps[app].Name)
		tb := newTable(append([]string{"TLP-BLK\\TRD"}, levelHeaders(g.Levels)...)...)
		for _, t0 := range g.Levels {
			cells := []string{fmt.Sprint(t0)}
			for _, t1 := range g.Levels {
				r, err := g.At([]int{t0, t1})
				if err != nil {
					return err
				}
				cells = append(cells, fmt.Sprintf("%.3f", r.Apps[app].EB))
			}
			tb.row(cells...)
		}
		tb.write(w)
	}
	fmt.Fprintf(w, "\npaper shape: the sharp EB-WS decline appears at a consistent TLP of the\n"+
		"critical application across co-runner TLP levels (the shaded pattern region).\n")
	return nil
}

// Fig7 walks through PBS-FI and PBS-HS on BLK_TRD: the scaled
// EB-difference views and the EB-HS views, plus the combinations each
// search selects.
func Fig7(e *Env, w io.Writer) error {
	header(w, "Fig. 7: PBS-FI (EB-difference) and PBS-HS (EB-HS) views for BLK_TRD")
	wl := workload.MustMake("BLK", "TRD")
	g, err := e.Grid(wl)
	if err != nil {
		return err
	}
	aloneEB, err := e.Suite.AloneEB(wl.Names())
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "(a) scaled EB-difference (EB-BLK/alone - EB-TRD/alone); rows = TLP-BLK\n\n")
	t := newTable(append([]string{"TLP-BLK\\TRD"}, levelHeaders(g.Levels)...)...)
	for _, t0 := range g.Levels {
		cells := []string{fmt.Sprint(t0)}
		for _, t1 := range g.Levels {
			r, err := g.At([]int{t0, t1})
			if err != nil {
				return err
			}
			d := r.Apps[0].EB/aloneEB[0] - r.Apps[1].EB/aloneEB[1]
			cells = append(cells, fmt.Sprintf("%+.3f", d))
		}
		t.row(cells...)
	}
	t.write(w)

	fmt.Fprintf(w, "\n(c) EB-HS (scaled); rows = TLP-BLK\n\n")
	th := newTable(append([]string{"TLP-BLK\\TRD"}, levelHeaders(g.Levels)...)...)
	var ebBuf []float64 // reused across the 64 grid cells
	for _, t0 := range g.Levels {
		cells := []string{fmt.Sprint(t0)}
		for _, t1 := range g.Levels {
			r, err := g.At([]int{t0, t1})
			if err != nil {
				return err
			}
			ebBuf = r.EBsInto(ebBuf[:0])
			cells = append(cells, fmt.Sprintf("%.3f", metrics.EBHS(ebBuf, aloneEB)))
		}
		th.row(cells...)
	}
	th.write(w)

	fiCombo, _, err := g.PBSOffline(metrics.ObjFI, aloneEB)
	if err != nil {
		return err
	}
	hsCombo, _, err := g.PBSOffline(metrics.ObjHS, aloneEB)
	if err != nil {
		return err
	}
	aloneIPC, err := e.Suite.AloneIPC(wl.Names())
	if err != nil {
		return err
	}
	optFI, _ := g.Best(evalSDFI(aloneIPC))
	optHS, _ := g.Best(evalSDHS(aloneIPC))
	fmt.Fprintf(w, "\nPBS-FI picks %s (optFI is %s); PBS-HS picks %s (optHS is %s).\n",
		fmtCombo(fiCombo), fmtCombo(optFI), fmtCombo(hsCombo), fmtCombo(optHS))
	fmt.Fprintf(w, "paper shape: the searches land on or adjacent to the zero crossing of the\n"+
		"scaled EB-difference and the EB-HS peak respectively.\n")
	return nil
}

// Fig8 prints the mechanism's hardware organization overheads.
func Fig8(e *Env, w io.Writer) error {
	header(w, "Fig. 8 / Section V-E: hardware organization and overheads")
	const apps = 2
	cost := pbscore.CostModel(apps, e.Opt.Config.NumCores, e.Opt.Config.NumMemPartitions)
	fmt.Fprint(w, cost.String())
	ladder := len(pbscore.NewPBS(metrics.ObjWS).SweepLevels)
	fmt.Fprintf(w, "\nsearch footprint: %d sweep samples + <= %d tuning samples per search\n"+
		"(vs %d combinations for an exhaustive search).\n",
		apps*ladder, apps*ladder, len(config.TLPLevels)*len(config.TLPLevels))
	return nil
}

func levelHeaders(levels []int) []string {
	out := make([]string, len(levels))
	for i, l := range levels {
		out[i] = fmt.Sprint(l)
	}
	return out
}
