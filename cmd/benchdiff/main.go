// Command benchdiff runs the repo's performance benchmarks and records
// the results as JSON, so perf regressions show up as a reviewable diff.
//
// Usage:
//
//	benchdiff                         # run substrate benches, write BENCH_1.json
//	benchdiff -out BENCH_2.json       # record a new snapshot
//	benchdiff -old BENCH_1.json       # run, then print a comparison table
//	benchdiff -baseline BENCH_3.json  # run, then print a one-line ratio table
//	benchdiff -bench 'CycleTick' -benchtime 500000x
//	benchdiff -bench 'SimulatorCycles' \
//	    -maxratio 'BenchmarkSimulatorCyclesObs/BenchmarkSimulatorCycles=1.05'
//
// -maxratio asserts a ns/op ratio between two benchmarks of the same run
// (numerator/denominator <= bound) and exits non-zero on violation; the
// Makefile's obs-bench target uses it to hold the observability overhead
// under 5%, ckpt-bench to hold forked cold sweeps under half the
// straight-cold time, and search-bench to hold the adaptive TLP search
// under half the exhaustive sweep. Sub-benchmark names contain '/', so
// ':' also separates the pair: '-maxratio BenchX/fast:BenchX/slow=0.5'.
// Custom ReportMetric units are recorded per benchmark under "extra" and
// their ratios printed alongside the asserted one.
//
// -baseline diffs this run against any named BENCH_*.json as a single
// line of new/old ns/op ratios — the compact form for commit messages
// and CI logs, where -old's full table is too wide.
//
// SIGINT/SIGTERM cancels the benchmark subprocess and exits 130.
//
// The default -bench selection covers the simulator substrate
// (BenchmarkCycleTick, BenchmarkRequestPool, BenchmarkMSHRTable,
// BenchmarkSimulatorCycles); pass your own regex for the full paper-panel
// benches. See DESIGN.md's Performance section for how these snapshots
// are used.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"ebm/internal/cli"
)

// Bench is one benchmark's recorded figures.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric units (e.g. "simcycles/op",
	// "cycles/s") keyed by unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// File is the JSON layout of a snapshot.
type File struct {
	Command    string  `json:"command"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() { cli.Main("benchdiff", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	sess := cli.NewSession(fs, 0, "")
	var (
		bench     = fs.String("bench", "CycleTick|RequestPool|MSHRTable|SimulatorCycles", "benchmark regex passed to go test -bench")
		pkgs      = fs.String("pkgs", "./...", "package pattern to benchmark")
		benchtime = fs.String("benchtime", "", "go test -benchtime value (empty: default)")
		count     = fs.Int("count", 1, "go test -count value")
		out       = fs.String("out", "BENCH_1.json", "output JSON snapshot (empty disables)")
		old       = fs.String("old", "", "previous snapshot to diff against")
		baseline  = fs.String("baseline", "", "snapshot to diff against as a one-line ratio table")
		maxRatio  = fs.String("maxratio", "", "assert ns/op ratio 'BenchA/BenchB=1.05' within this run")
	)
	if done, err := sess.Parse(args); done {
		return err
	}

	goArgs := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		goArgs = append(goArgs, "-benchtime", *benchtime)
	}
	goArgs = append(goArgs, *pkgs)
	cmd := exec.CommandContext(ctx, "go", goArgs...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintln(os.Stderr, "benchdiff: go", strings.Join(goArgs, " "))
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(buf.Bytes())
		if cerr := ctx.Err(); cerr != nil {
			return cerr // the subprocess was killed by the signal
		}
		return err
	}
	os.Stderr.Write(buf.Bytes())

	benches := parse(buf.Bytes())
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines matched")
	}
	snap := File{Command: "go " + strings.Join(goArgs, " "), Benchmarks: benches}

	if *out != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchdiff: wrote %s (%d benchmarks)\n", *out, len(benches))
	}

	if *old != "" {
		prev, err := load(*old)
		if err != nil {
			return err
		}
		diff(os.Stdout, prev, snap)
	}

	if *baseline != "" {
		prev, err := load(*baseline)
		if err != nil {
			return err
		}
		fmt.Println(ratioLine(*baseline, prev, snap))
	}

	if *maxRatio != "" {
		if err := assertRatio(snap, *maxRatio); err != nil {
			return err
		}
	}
	return nil
}

// assertRatio checks a "Numerator/Denominator=bound" constraint against
// the ns/op figures of the snapshot just taken. Comparing two benchmarks
// from the same run sidesteps machine-to-machine drift that makes
// absolute-time assertions flaky.
func assertRatio(snap File, spec string) error {
	names, boundStr, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("bad -maxratio %q, want 'BenchA/BenchB=1.05'", spec)
	}
	// ':' separates names containing '/' (sub-benchmarks, e.g.
	// 'BenchmarkX/fast:BenchmarkX/slow=0.5'); plain names may keep '/'.
	num, den, ok := strings.Cut(names, ":")
	if !ok {
		num, den, ok = strings.Cut(names, "/")
	}
	if !ok {
		return fmt.Errorf("bad -maxratio %q, want 'BenchA/BenchB=1.05'", spec)
	}
	bound, err := strconv.ParseFloat(strings.TrimSpace(boundStr), 64)
	if err != nil || bound <= 0 {
		return fmt.Errorf("bad -maxratio bound %q", boundStr)
	}
	// With -count > 1 each name appears several times; take the fastest
	// run of each (the least-noise estimate) before forming the ratio.
	find := func(name string) (Bench, error) {
		name = strings.TrimSpace(name)
		var best Bench
		for _, b := range snap.Benchmarks {
			if b.Name == name && (best.Name == "" || b.NsPerOp < best.NsPerOp) {
				best = b
			}
		}
		if best.Name == "" {
			return Bench{}, fmt.Errorf("-maxratio: benchmark %q not in this run", name)
		}
		return best, nil
	}
	nb, err := find(num)
	if err != nil {
		return err
	}
	db, err := find(den)
	if err != nil {
		return err
	}
	if db.NsPerOp == 0 {
		return fmt.Errorf("-maxratio: %s has zero ns/op", db.Name)
	}
	ratio := nb.NsPerOp / db.NsPerOp
	fmt.Printf("ratio %s/%s = %.4f (bound %.4f)\n", nb.Name, db.Name, ratio, bound)
	// Custom units both sides report (e.g. simcycles/op) are informative
	// context for the asserted wall-clock ratio, not themselves asserted.
	units := make([]string, 0, len(nb.Extra))
	for u := range nb.Extra {
		if db.Extra[u] != 0 {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	for _, u := range units {
		fmt.Printf("ratio %s/%s [%s] = %.4f\n", nb.Name, db.Name, u, nb.Extra[u]/db.Extra[u])
	}
	if ratio > bound {
		return fmt.Errorf("ratio %.4f exceeds bound %.4f", ratio, bound)
	}
	return nil
}

// parse extracts benchmark result lines from go test output. A line looks
// like:
//
//	BenchmarkCycleTick-8   300000   3434 ns/op   2 B/op   0 allocs/op
//
// Unknown units (custom ReportMetric values) land in Bench.Extra.
func parse(output []byte) []Bench {
	var out []Bench
	sc := bufio.NewScanner(bytes.NewReader(output))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
		b := Bench{Name: name, Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Extra == nil {
					b.Extra = map[string]float64{}
				}
				b.Extra[f[i+1]] = v
			}
		}
		out = append(out, b)
	}
	return out
}

func load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	err = json.Unmarshal(data, &f)
	return f, err
}

// diff prints old-vs-new ns/op and allocs/op with percentage change.
func diff(w *os.File, old, new File) {
	byName := make(map[string]Bench, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		byName[b.Name] = b
	}
	fmt.Fprintf(w, "%-28s %12s %12s %8s %10s %10s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, b := range new.Benchmarks {
		o, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-28s %12s %12.1f %8s %10s %10.1f %8s\n",
				b.Name, "-", b.NsPerOp, "new", "-", b.AllocsPerOp, "new")
			continue
		}
		fmt.Fprintf(w, "%-28s %12.1f %12.1f %7s%% %10.1f %10.1f %7s%%\n",
			b.Name, o.NsPerOp, b.NsPerOp, pct(o.NsPerOp, b.NsPerOp),
			o.AllocsPerOp, b.AllocsPerOp, pct(o.AllocsPerOp, b.AllocsPerOp))
	}
}

// ratioLine renders new-vs-baseline ns/op ratios as one line:
// "vs BENCH_3.json: BenchmarkA=0.97x BenchmarkB=1.42x BenchmarkC=new".
// With -count > 1 the fastest run of each name on both sides forms the
// ratio, matching assertRatio's least-noise estimate.
func ratioLine(name string, base, cur File) string {
	fastest := func(f File) map[string]float64 {
		m := map[string]float64{}
		for _, b := range f.Benchmarks {
			if v, ok := m[b.Name]; !ok || b.NsPerOp < v {
				m[b.Name] = b.NsPerOp
			}
		}
		return m
	}
	bm := fastest(base)
	var parts []string
	seen := map[string]bool{}
	for _, b := range cur.Benchmarks {
		if seen[b.Name] {
			continue
		}
		seen[b.Name] = true
		o, ok := bm[b.Name]
		switch {
		case !ok:
			parts = append(parts, b.Name+"=new")
		case o == 0:
			parts = append(parts, b.Name+"=inf")
		default:
			parts = append(parts, fmt.Sprintf("%s=%.2fx", b.Name, fastest(cur)[b.Name]/o))
		}
	}
	return "vs " + name + ": " + strings.Join(parts, " ")
}

func pct(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "+0.0"
		}
		return "+inf"
	}
	return fmt.Sprintf("%+.1f", 100*(new-old)/old)
}
