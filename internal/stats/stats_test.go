package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
	if Summarize([]float64{7}).Std != 0 {
		t.Fatal("single-element std should be 0")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Percentile(sorted, 0) != 10 || Percentile(sorted, 100) != 40 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(sorted, 50); got != 25 {
		t.Fatalf("median of even sample = %v, want 25", got)
	}
	if got := Percentile(sorted, 25); math.Abs(got-17.5) > 1e-12 {
		t.Fatalf("p25 = %v", got)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Percentile(nil, 50)
}

func TestMedianUnsorted(t *testing.T) {
	if Median([]float64{9, 1, 5}) != 5 {
		t.Fatal("median wrong")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 4})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.Quantile(0.5) != 2 {
		t.Fatalf("Quantile(0.5) = %v", c.Quantile(0.5))
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		c := NewCDF(xs)
		prev := -1.0
		for _, v := range c.Values {
			f := c.At(v)
			if f < prev {
				return false
			}
			prev = f
		}
		return c.At(math.Inf(1)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAsciiPlot(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30})
	out := AsciiPlot(map[rune]*CDF{'M': c}, 40, 40, 10)
	if !strings.Contains(out, "M") {
		t.Fatal("plot missing series")
	}
	if !strings.Contains(out, "1.00") || !strings.Contains(out, "0.00") {
		t.Fatal("plot missing axis labels")
	}
}

func TestGainVsBaseline(t *testing.T) {
	g := GainVsBaseline([]float64{10, 20, 30}, []float64{5, 0, 10})
	if len(g) != 2 || g[0] != 2 || g[1] != 3 {
		t.Fatalf("gains %v", g)
	}
}

func TestSummarizeSkipsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	s := Summarize([]float64{1, nan, 2, inf, 3, math.Inf(-1)})
	if s.N != 3 {
		t.Fatalf("N = %d, want 3 finite values", s.N)
	}
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("moments poisoned: %+v", s)
	}
	z := Summarize([]float64{nan, inf})
	if z.N != 0 || z.Mean != 0 {
		t.Fatalf("all-non-finite sample should yield zero Summary, got %+v", z)
	}
}

func TestPercentileNonFinite(t *testing.T) {
	// sort.Float64s puts NaN first and +Inf last; Percentile must trim
	// both and interpolate over the finite window only.
	sorted := []float64{math.NaN(), math.Inf(-1), 1, 2, 3, math.Inf(1)}
	if got := Percentile(sorted, 50); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := Percentile(sorted, 0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := Percentile(sorted, 100); got != 3 {
		t.Fatalf("p100 = %v, want 3", got)
	}
	if got := Percentile([]float64{1, 2, 3}, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("NaN p should return NaN, got %v", got)
	}
	if got := Percentile([]float64{math.NaN(), math.Inf(1)}, 50); !math.IsNaN(got) {
		t.Fatalf("all-non-finite sample should return NaN, got %v", got)
	}
}
