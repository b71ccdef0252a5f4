// Package benchfile reads the repository's BENCHMARK.json (the benchmark's
// command, workloads and metric catalogue) and holds the summary
// statistics the benchmark and its A/B runner share.
package benchfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric is one declared metric. Bound is set for end-to-end metrics
// only: the relative worsening of the median that counts as a regression.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload is one declared workload.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// File is the content of BENCHMARK.json.
type File struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Load reads and decodes a BENCHMARK.json, rejecting unknown keys.
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfile: %w", err)
	}
	var f File
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfile: %s: %w", path, err)
	}
	return &f, nil
}

// Quartiles returns the first quartile, the median and the third quartile
// of xs by the method Python's statistics.quantiles(xs, n=4) uses by
// default ("exclusive"). One value is its own three quartiles; an empty
// slice gives zeros.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
