package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQErrorBasics(t *testing.T) {
	if QError(10, 10) != 1 {
		t.Fatal("perfect estimate must be 1")
	}
	if QError(10, 20) != 2 || QError(20, 10) != 2 {
		t.Fatal("q-error must be symmetric ratio")
	}
	if q := QError(0, 5); math.IsInf(q, 0) || math.IsNaN(q) {
		t.Fatalf("q-error with zero truth: %v", q)
	}
}

// Property: q-error is ≥ 1 and symmetric for positive inputs.
func TestQErrorProperties(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a)+1e-6, math.Abs(b)+1e-6
		if math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		q := QError(a, b)
		return q >= 1 && math.Abs(q-QError(b, a)) < 1e-9*q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Median(xs) != 3 {
		t.Fatalf("median %v", Median(xs))
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles")
	}
	// Interpolation: q=0.25 over 5 points → pos 1.0 → 2.
	if Quantile(xs, 0.25) != 2 {
		t.Fatalf("q25 %v", Quantile(xs, 0.25))
	}
	// A singleton is its own quantile everywhere.
	for _, q := range []float64{0, 0.5, 0.9, 1} {
		if v := Quantile([]float64{3.5}, q); v != 3.5 {
			t.Fatalf("Quantile([3.5], %v) = %v", q, v)
		}
	}
	// Does not mutate input.
	ys := []float64{3, 1, 2}
	Median(ys)
	if ys[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Median(nil)
}

func TestQuantileClampsRange(t *testing.T) {
	xs := []float64{1, 2}
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 2 {
		t.Fatal("clamping failed")
	}
}

func TestMeanGeoMean(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Fatal("empty aggregates should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if math.Abs(GeoMean([]float64{1, 100})-10) > 1e-9 {
		t.Fatalf("geomean %v", GeoMean([]float64{1, 100}))
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(100, 20) != 5 {
		t.Fatal("speedup")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("zero current should be +Inf")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 1, 2, 4, 10})
	if s.N != 5 || s.Median != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.P95 < 4 || s.P95 > 10 {
		t.Fatalf("p95 %v", s.P95)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
	if s.String() == "" {
		t.Fatal("empty string render")
	}
}

func TestParallelismCategory(t *testing.T) {
	cases := map[float64]string{
		1: "XS", 7.9: "XS", 8: "S", 15: "S", 16: "M", 31: "M", 32: "L", 63: "L", 64: "XL", 127: "XL",
	}
	for deg, want := range cases {
		if got := ParallelismCategory(deg); got != want {
			t.Errorf("category(%v) = %s, want %s", deg, got, want)
		}
	}
	if len(Categories()) != 5 {
		t.Fatal("categories")
	}
}
