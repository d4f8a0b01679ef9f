// Package stats provides the summary statistics and distribution plots the
// evaluation chapter (§4.2–§4.4) reports: CDFs over flow throughputs
// (Figures 4-2, 4-4, 4-6, 4-7), medians and percentiles as §4.2.1 quotes
// them, means with standard deviations (Figure 4-5), and plain-text
// renderings for the benchmark harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the moments and order statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P10    float64
	P90    float64
}

// Summarize computes a Summary over the finite values of the sample. NaN
// and ±Inf inputs are skipped — one poisoned sample (a 0/0 throughput
// ratio, an overflowed latency) must not turn every reported moment into
// NaN, the same hardening JainIndex got. N counts the finite values; an
// empty or all-non-finite sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sorted = append(sorted, x)
		}
	}
	s := Summary{N: len(sorted)}
	if len(sorted) == 0 {
		return s
	}
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Percentile(sorted, 50)
	s.P10 = Percentile(sorted, 10)
	s.P90 = Percentile(sorted, 90)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	if len(sorted) > 1 {
		s.Std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return s
}

// Percentile returns the p-th percentile (0..100) of a *sorted* sample
// using linear interpolation. It panics on an empty sample. Non-finite
// values are excluded: sort.Float64s places NaNs first and +Inf last, so
// the finite window is trimmed from both ends before interpolating. A NaN
// p, or a sample with no finite values, returns NaN.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty sample")
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	lo0, hi0 := 0, len(sorted)
	for lo0 < hi0 && (math.IsNaN(sorted[lo0]) || math.IsInf(sorted[lo0], -1)) {
		lo0++
	}
	for hi0 > lo0 && (math.IsNaN(sorted[hi0-1]) || math.IsInf(sorted[hi0-1], 1)) {
		hi0--
	}
	sorted = sorted[lo0:hi0]
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median sorts a copy and returns the 50th percentile.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Percentile(sorted, 50)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	// Sorted sample values.
	Values []float64
}

// NewCDF builds a CDF from a sample (copied and sorted).
func NewCDF(xs []float64) *CDF {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return &CDF{Values: v}
}

// At returns F(x): the fraction of the sample ≤ x.
func (c *CDF) At(x float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.Values, x)
	// Advance over equal values so At is right-continuous.
	for i < len(c.Values) && c.Values[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.Values))
}

// Quantile returns the value at cumulative fraction q in [0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	return Percentile(c.Values, q*100)
}

// AsciiPlot renders one or more CDFs as a crude fixed-width chart: x axis
// spans [0, xmax], y axis 0..1. Each series is drawn with its rune.
func AsciiPlot(series map[rune]*CDF, xmax float64, width, height int) string {
	if width < 10 {
		width = 60
	}
	if height < 5 {
		height = 20
	}
	gridRows := height + 1
	grid := make([][]rune, gridRows)
	for y := range grid {
		grid[y] = []rune(strings.Repeat(" ", width+1))
	}
	order := make([]rune, 0, len(series))
	for r := range series {
		order = append(order, r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, r := range order {
		c := series[r]
		for xi := 0; xi <= width; xi++ {
			x := xmax * float64(xi) / float64(width)
			f := c.At(x)
			y := int(math.Round(f * float64(height)))
			if y > height {
				y = height
			}
			row := height - y
			grid[row][xi] = r
		}
	}
	var b strings.Builder
	for y, row := range grid {
		frac := 1 - float64(y)/float64(height)
		fmt.Fprintf(&b, "%4.2f |%s\n", frac, string(row))
	}
	b.WriteString("     +" + strings.Repeat("-", width+1) + "\n")
	fmt.Fprintf(&b, "      0%*s\n", width, fmt.Sprintf("%.0f", xmax))
	return b.String()
}

// GainVsBaseline returns elementwise ratios a[i]/b[i], skipping pairs where
// the baseline is zero (used for the "MORE over Srcr" gain figures).
func GainVsBaseline(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var out []float64
	for i := 0; i < n; i++ {
		if b[i] > 0 {
			out = append(out, a[i]/b[i])
		}
	}
	return out
}
