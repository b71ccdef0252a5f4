package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same runs", steady, steady, "lower", "unchanged"},
		{"faster everywhere", steady, scale(steady, 0.8), "lower", "improved"},
		{"slower beyond bound", steady, scale(steady, 1.2), "lower", "regressed"},
		{"slower within bound", steady, scale(steady, 1.05), "lower", "unchanged"},
		{"throughput up", steady, scale(steady, 1.2), "higher", "improved"},
		{"throughput down", steady, scale(steady, 0.8), "higher", "regressed"},
		{"parent too noisy", noisy, scale(noisy, 1.05), "lower", "unresolved"},
		{"noisy but all better", noisy, scale(steady, 0.5), "lower", "improved"},
	} {
		if got := compare(tc.a, tc.b, tc.better, 0.10).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareCountsWinsPairwise(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{0.5, 2, 3.5, 3}
	c := compare(a, b, "lower", 0.1)
	if c.wins != 2 || c.n != 4 {
		t.Fatalf("wins %d/%d, want 2/4 (ties count for neither side)", c.wins, c.n)
	}
}
