// Package stats provides the small numeric utilities shared across the
// simulator: the geometric mean and median, a divide-by-zero-safe ratio,
// the per-application cache miss counter, and a deterministic splittable
// PRNG used by the synthetic kernels.
package stats

import (
	"math"
	"sort"
)

// Gmean returns the geometric mean of xs. Non-positive entries are an
// error in this codebase (all aggregated metrics are positive), so Gmean
// returns 0 in that case rather than NaN to keep tables readable.
func Gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Ratio returns a/b, or 0 when b is 0, keeping divide-by-zero out of the
// metric plumbing.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// MissRatio counts one application's accesses to a cache and the misses
// among them, over the cache's lifetime. A sampling window's or a run's
// miss rate is the ratio of the differences of the two totals over its
// interval. Its fields are exported so engine checkpoints encode it as is.
type MissRatio struct {
	Accesses uint64
	Misses   uint64
}

// Record registers one access and whether it missed.
func (m *MissRatio) Record(miss bool) {
	m.Accesses++
	if miss {
		m.Misses++
	}
}
