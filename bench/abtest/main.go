// Command abtest compares two ebmbench binaries, A (the parent) and B
// (the change), on the end-to-end metrics BENCHMARK.json declares. For
// each workload it runs interleaved pairs, alternating which side goes
// first, and prints per metric both sides' medians and quartiles, the
// fraction of pairs B won, and a verdict:
//
//   - improved: B won at least nine tenths of the pairs and its median is
//     better than A's by more than the spread of A's own runs (the distance
//     between A's quartiles);
//   - regressed: B's median is worse than A's by more than the metric's
//     bound, with A's spread within the bound;
//   - unresolved: A's spread is wider than the bound and B's runs do not
//     all read better than A's;
//   - unchanged: anything else.
//
// Every run lasts run_seconds from BENCHMARK.json, and every workload the
// file lists is compared. Build the two binaries from two checkouts, then
// run from this directory:
//
//	go run ./abtest -a /tmp/ebmbench-parent -b /tmp/ebmbench-change -pairs 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"ebm/bench/internal/benchfile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	binA := fs.String("a", "", "ebmbench binary built from the parent commit")
	binB := fs.String("b", "", "ebmbench binary built from the change")
	specPath := fs.String("spec", "../BENCHMARK.json", "BENCHMARK.json with the metrics and their bounds")
	pairs := fs.Int("pairs", 10, "interleaved pairs per workload (at least 10 for a claim)")
	seed := fs.Int64("seed", 1, "seed of every run")
	dir := fs.String("dir", "..", "directory the binaries run in (their scratch goes under its .bench_build/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *binA == "" || *binB == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "abtest: need -a, -b and -pairs >= 1")
		return 2
	}
	spec, err := benchfile.Load(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "abtest:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-15s %-15s %-32s %-32s %-7s %-8s %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "change", "verdict")
	for _, wl := range spec.Workloads {
		w := wl.Name
		a, b := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < *pairs; i++ {
			first, second := *binA, *binB
			fa, fb := a, b
			if i%2 == 1 {
				first, second, fa, fb = second, first, fb, fa
			}
			for _, side := range []struct {
				bin string
				out map[string][]float64
			}{{first, fa}, {second, fb}} {
				m, err := runOnce(side.bin, *dir, w, *seed, spec.RunSeconds)
				if err != nil {
					fmt.Fprintf(stderr, "abtest: %s pair %d: %v\n", w, i+1, err)
					return 1
				}
				for k, v := range m {
					side.out[k] = append(side.out[k], v)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			c := compare(a[m.Name], b[m.Name], m.Better, m.Bound)
			fmt.Fprintf(stdout, "%-15s %-15s %-32s %-32s %-7s %+7.2f%% %s\n", w, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.medA, c.q1A, c.q3A),
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.medB, c.q1B, c.q3B),
				fmt.Sprintf("%d/%d", c.wins, c.n), 100*c.change, c.verdict)
		}
	}
	return 0
}

// runOnce runs one binary once and returns its end-to-end metrics, from
// the JSON summary on its last output line.
func runOnce(bin, dir, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %s", bin, err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var sum struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		return nil, fmt.Errorf("%s: summary: %w", bin, err)
	}
	if !sum.Correct {
		return nil, fmt.Errorf("%s: results failed their checks", bin)
	}
	m := map[string]float64{}
	for k, v := range sum.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// comparison is one metric's A/B summary.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, n        int     // pairs B won (ties count for neither), pairs run
	change         float64 // B's median relative to A's, positive = worse
	verdict        string
}

// compare applies the verdict rule to the paired runs a[i], b[i].
func compare(a, b []float64, better string, bound float64) comparison {
	var c comparison
	c.q1A, c.medA, c.q3A = benchfile.Quartiles(a)
	c.q1B, c.medB, c.q3B = benchfile.Quartiles(b)
	c.n = min(len(a), len(b))
	sign := 1.0 // +1 when lower is better
	if better == "higher" {
		sign = -1
	}
	allBetter := c.n > 0
	for i := 0; i < c.n; i++ {
		if sign*(b[i]-a[i]) < 0 {
			c.wins++
		}
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	if c.medA == 0 {
		c.verdict = "unresolved"
		return c
	}
	c.change = sign * (c.medB - c.medA) / c.medA
	spreadA := (c.q3A - c.q1A) / c.medA
	switch {
	case c.n > 0 && float64(c.wins) >= 0.9*float64(c.n) && -c.change > spreadA:
		c.verdict = "improved"
	case spreadA > bound && !allBetter:
		c.verdict = "unresolved"
	case spreadA <= bound && c.change > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "unchanged"
	}
	return c
}
