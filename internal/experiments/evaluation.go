package experiments

import (
	"fmt"
	"io"
	"strings"

	"ebm/internal/metrics"
	"ebm/internal/runner"
	"ebm/internal/search"
	"ebm/internal/spec"
	"ebm/internal/stats"
	"ebm/internal/workload"
)

func evalSDFI(aloneIPC []float64) search.Eval { return search.SDEval(metrics.ObjFI, aloneIPC) }
func evalSDHS(aloneIPC []float64) search.Eval { return search.SDEval(metrics.ObjHS, aloneIPC) }

// evals computes (with caching) the full scheme evaluation for every
// workload in the environment's evaluation set. Workloads evaluate
// concurrently — each EvalWorkload is an orchestrator on its own
// goroutine submitting leaf simulations to the shared pool — and
// singleflight collapses duplicate requests for the same workload.
func (e *Env) evals() (map[string]*Eval, error) {
	evs := make([]*Eval, len(e.Opt.Workloads))
	err := runner.ForEach(e.ctx, len(evs), 0, func(i int) (err error) {
		evs[i], err = e.evalOf(e.Opt.Workloads[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]*Eval, len(evs))
	for i, wl := range e.Opt.Workloads {
		out[wl.Name] = evs[i]
	}
	return out, nil
}

// evalOf returns the cached evaluation for one workload, computing it at
// most once even under concurrent callers.
func (e *Env) evalOf(wl workload.Workload) (*Eval, error) {
	return e.evalM.get(wl.Name, func() (*Eval, error) { return e.EvalWorkload(wl) })
}

// metricOf extracts one objective's value from an outcome.
func metricOf(o Outcome, obj metrics.Objective) float64 {
	switch obj {
	case metrics.ObjWS:
		return o.WS
	case metrics.ObjFI:
		return o.FI
	default:
		return o.HS
	}
}

// schemePanel renders a Fig. 9/10/12-style panel: for each representative
// workload (and the gmean over the full evaluation set), each scheme's
// metric normalized to ++bestTLP.
func (e *Env) schemePanel(w io.Writer, obj metrics.Objective, schemes []string) error {
	evs, err := e.evals()
	if err != nil {
		return err
	}
	repr := map[string]bool{}
	for _, wl := range workload.Representative() {
		repr[wl.Name] = true
	}

	t := newTable(append([]string{"workload"}, schemes...)...)
	norm := map[string][]float64{} // per scheme, across all workloads
	for _, wl := range e.Opt.Workloads {
		ev := evs[wl.Name]
		base := metricOf(ev.Outcomes[SchBestTLP], obj)
		cells := []string{wl.Name}
		for _, s := range schemes {
			o, ok := ev.Outcomes[s]
			v := 0.0
			if ok && base > 0 {
				v = metricOf(o, obj) / base
			}
			norm[s] = append(norm[s], v)
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		if repr[wl.Name] || len(e.Opt.Workloads) <= 12 {
			t.row(cells...)
		}
	}
	cells := []string{"Gmean(all)"}
	for _, s := range schemes {
		cells = append(cells, fmt.Sprintf("%.3f", stats.Gmean(norm[s])))
	}
	t.row(cells...)
	t.write(w)
	fmt.Fprintf(w, "\n(all values normalized to ++bestTLP; Gmean over the %d-workload set)\n",
		len(e.Opt.Workloads))
	return nil
}

// Fig9 reproduces the weighted-speedup comparison of all schemes.
func Fig9(e *Env, w io.Writer) error {
	header(w, "Fig. 9: impact on Weighted Speedup (normalized to ++bestTLP)")
	return e.schemePanel(w, metrics.ObjWS,
		[]string{SchDynCTA, SchModBypass, SchBatch, SchWRS, SchPBSWS, SchPBSWSOff, SchBFWS, SchOptWS})
}

// Fig10 reproduces the fairness comparison of all schemes.
func Fig10(e *Env, w io.Writer) error {
	header(w, "Fig. 10: impact on Fairness Index (normalized to ++bestTLP)")
	return e.schemePanel(w, metrics.ObjFI,
		[]string{SchDynCTA, SchModBypass, SchBatch, SchWRS, SchPBSFI, SchPBSFIOff, SchBFFI, SchOptFI})
}

// Fig12 reconstructs the harmonic-speedup panel (its data fall in the
// truncated tail of the source text; the schemes follow Section V-D).
func Fig12(e *Env, w io.Writer) error {
	header(w, "HS panel (reconstructed): impact on Harmonic Speedup (normalized to ++bestTLP)")
	return e.schemePanel(w, metrics.ObjHS,
		[]string{SchDynCTA, SchModBypass, SchBatch, SchWRS, SchPBSHS, SchPBSHSOff, SchBFHS, SchOptHS})
}

// Fig11 traces the TLP decisions of PBS-WS and PBS-FI over the execution
// of BLK_BFS, with the searching (sampling) periods marked.
func Fig11(e *Env, w io.Writer) error {
	header(w, "Fig. 11: TLP over time for BLK_BFS under PBS-WS and PBS-FI")
	wl := workload.MustMake("BLK", "BFS")
	for _, variant := range []struct {
		sch  spec.SchemeSpec
		name string
	}{{spec.PBS(metrics.ObjWS), SchPBSWS}, {spec.PBS(metrics.ObjFI), SchPBSFI}} {
		// Twice the evaluation horizon so kernel-relaunch restarts (and
		// the re-sampling periods around them) are visible.
		rs := e.EvalSpec(wl, variant.sch)
		rs.TotalCycles *= 2
		r, err := e.Run(rs)
		if err != nil {
			return err
		}
		// Per-app TLP per window, and how many windows PBS spent
		// searching (the shaded regions of the paper's figure), from the
		// run's decision record.
		series := make([][]point, len(wl.Apps))
		states := r.WindowStates(rs.WindowCycles)
		searching := 0
		for _, st := range states {
			for i, tlp := range st.TLP {
				series[i] = append(series[i], point{st.Cycle, float64(tlp)})
			}
			if st.Searching {
				searching++
			}
		}
		d := r.Decisions // every PBS run carries one
		fmt.Fprintf(w, "\n--- %s ---\n", variant.name)
		for app := range wl.Apps {
			fmt.Fprintf(w, "\nTLP-%s over time (bar height = TLP, max 24):\n%s",
				wl.Apps[app].Name, renderASCII(series[app], 24, 24))
		}
		fmt.Fprintf(w, "\nsampling/search windows: %d of %d (%.0f%%); searches completed: %d; "+
			"kernel-relaunch restarts: %d\n",
			searching, len(states), 100*float64(searching)/float64(max(1, len(states))),
			d.Searches, d.Restarts)
	}
	fmt.Fprintf(w, "\npaper shape: a preferred combination holds for most of the run, with\n"+
		"re-sampling periods (shaded in the paper) around kernel relaunches.\n")
	return nil
}

// point is one windowed observation of a run time series.
type point struct {
	cycle uint64
	value float64
}

// renderASCII renders a series as a compact one-line-per-bucket text
// chart of bucket-averaged value bars, scaled to maxV (the series maximum
// when maxV <= 0).
func renderASCII(pts []point, buckets int, maxV float64) string {
	if len(pts) == 0 || buckets <= 0 {
		return ""
	}
	if maxV <= 0 {
		for _, p := range pts {
			maxV = max(maxV, p.value)
		}
		if maxV == 0 {
			maxV = 1
		}
	}
	per := (len(pts) + buckets - 1) / buckets
	var b strings.Builder
	for i := 0; i < len(pts); i += per {
		end := min(i+per, len(pts))
		sum := 0.0
		for _, p := range pts[i:end] {
			sum += p.value
		}
		avg := sum / float64(end-i)
		bars := min(max(int(avg/maxV*40), 0), 40)
		fmt.Fprintf(&b, "%10d %7.2f %s\n", pts[i].cycle, avg, strings.Repeat("#", bars))
	}
	return b.String()
}
