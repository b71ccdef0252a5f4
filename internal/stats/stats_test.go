package stats

import (
	"math"
	"sort"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGmean(t *testing.T) {
	if g := Gmean([]float64{2, 8}); !almost(g, 4) {
		t.Errorf("Gmean(2,8) = %v, want 4", g)
	}
	if g := Gmean(nil); g != 0 {
		t.Errorf("Gmean(nil) = %v, want 0", g)
	}
	if g := Gmean([]float64{1, 0, 2}); g != 0 {
		t.Errorf("Gmean with zero = %v, want 0", g)
	}
	if g := Gmean([]float64{3}); !almost(g, 3) {
		t.Errorf("Gmean single = %v, want 3", g)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if m := Median(xs); !almost(m, 3) {
		t.Fatalf("Median odd = %v", m)
	}
	if m := Median([]float64{1, 2, 3, 4}); !almost(m, 2.5) {
		t.Fatalf("Median even = %v", m)
	}
	// Median must not mutate its input.
	if !sort.Float64sAreSorted([]float64{1, 2, 3}) {
		t.Fatal("sanity")
	}
	orig := []float64{5, 1, 3}
	Median(orig)
	if orig[0] != 5 || orig[1] != 1 {
		t.Fatal("Median mutated its input")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio wrong")
	}
}

func TestMissRatio(t *testing.T) {
	var m MissRatio
	m.Record(true)
	m.Record(false)
	m.Record(false)
	m.Record(false)
	if m.Accesses != 4 || m.Misses != 1 {
		t.Fatalf("accesses=%d misses=%d, want 4 and 1", m.Accesses, m.Misses)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a42 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a42.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide %d/100 times", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.22 || p > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %v", p)
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(13)
	var buckets [10]int
	const n = 50000
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d heavily skewed: %d of %d", i, b, n)
		}
	}
}
