// Package stats provides the small numeric utilities shared across the
// simulator: aggregate means, normalization helpers, windowed counters, and
// a deterministic splittable PRNG used by the synthetic kernels.
package stats

import (
	"fmt"
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

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Hmean returns the harmonic mean of xs (0 if any entry is non-positive).
func Hmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// Min returns the smallest element of xs (+Inf for an empty slice).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs (-Inf for an empty slice).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
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

// Normalize divides every element of xs by base, returning a new slice.
// A zero base yields a slice of zeros.
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	if base == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// Percent formats x as a signed percentage improvement over 1.0, e.g.
// 1.13 -> "+13.0%".
func Percent(x float64) string {
	return fmt.Sprintf("%+.1f%%", (x-1)*100)
}

// Counter is a monotonically increasing event counter with a window mark,
// mirroring the paper's per-sampling-window hardware registers: Total is
// the lifetime count, Window the count since the last NewWindow. Its
// fields are exported so engine checkpoints encode it as is.
type Counter struct {
	Count uint64 // lifetime count
	Mark  uint64 // Count at the last NewWindow
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.Count += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Count++ }

// Total returns the lifetime count.
func (c *Counter) Total() uint64 { return c.Count }

// Window returns the count accumulated since the last NewWindow call.
func (c *Counter) Window() uint64 { return c.Count - c.Mark }

// NewWindow starts a new sampling window.
func (c *Counter) NewWindow() { c.Mark = c.Count }

// MissRatio is a hit/miss counter pair exposing windowed miss rates.
type MissRatio struct {
	Accesses Counter
	Misses   Counter
}

// Record registers one access and whether it missed.
func (m *MissRatio) Record(miss bool) {
	m.Accesses.Inc()
	if miss {
		m.Misses.Inc()
	}
}

// WindowRate returns the miss rate over the current window. With no
// accesses in the window it returns 1.0: an idle cache amplifies nothing,
// which matches the paper's convention that CMR=1 means "caches not useful".
func (m *MissRatio) WindowRate() float64 {
	a := m.Accesses.Window()
	if a == 0 {
		return 1
	}
	return float64(m.Misses.Window()) / float64(a)
}

// TotalRate returns the lifetime miss rate (1.0 when never accessed).
func (m *MissRatio) TotalRate() float64 {
	a := m.Accesses.Total()
	if a == 0 {
		return 1
	}
	return float64(m.Misses.Total()) / float64(a)
}

// NewWindow rolls both counters into a new sampling window.
func (m *MissRatio) NewWindow() {
	m.Accesses.NewWindow()
	m.Misses.NewWindow()
}
