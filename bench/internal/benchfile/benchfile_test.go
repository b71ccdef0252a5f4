package benchfile

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2}, [3]float64{0.725, 2.15, 3.575}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, [3]float64{2, 8, 32}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := Quartiles(tc.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v) = %v %v %v, want %v", tc.xs, q1, med, q3, tc.want)
				break
			}
		}
	}
}
