package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestGF256BenchAndBaselineCompare(t *testing.T) {
	res := GF256Bench([]string{"portable", "reference"}, 8, []int{64, 256}, 5*time.Millisecond)
	if len(res.Points) != 12 { // 2 kernels x (2 combine ops x 2 sizes + muladd x 2 sizes)
		t.Fatalf("got %d points, want 12", len(res.Points))
	}
	for _, kernel := range []string{"portable", "reference"} {
		for _, size := range []int{32, 1500} {
			if _, ok := res.Cell(kernel, "muladd", size); !ok {
				t.Fatalf("%s/muladd/%dB cell missing", kernel, size)
			}
		}
	}
	for _, p := range res.Points {
		if p.GBps <= 0 {
			t.Fatalf("cell %s/%s/%d measured %.3f GB/s", p.Kernel, p.Op, p.Size, p.GBps)
		}
	}
	if tab := res.Table(); !strings.Contains(tab, "portable") || !strings.Contains(tab, "muladd") {
		t.Fatalf("table missing kernel row or muladd block:\n%s", tab)
	}
	// Unknown kernels are skipped, not fatal.
	if n := len(GF256Bench([]string{"no-such-arm"}, 8, []int{64}, time.Millisecond).Points); n != 0 {
		t.Fatalf("unknown kernel produced %d points", n)
	}

	// A 30% drop on a kernel gated on absolute throughput is flagged; the
	// reference oracle is never gated.
	cur := &GF256BenchResult{K: 8}
	for _, p := range res.Points {
		q := p
		q.GBps *= 0.7
		cur.Points = append(cur.Points, q)
	}
	bad := CompareGF256Baselines(res, cur, 0.20, []string{"portable"})
	if len(bad) != 6 {
		t.Fatalf("got %d regressions, want 6 (portable cells only): %v", len(bad), bad)
	}
	if len(CompareGF256Baselines(res, res, 0.20, []string{"portable", "reference"})) != 0 {
		t.Fatal("identical results flagged as regression")
	}

	// Every other arm gates on its same-run ratio to portable: a slower
	// host (both halved) passes, an arm that lost its advantage does not.
	base := &GF256BenchResult{K: 8, Points: []GF256Point{
		{Kernel: "portable", Op: "muladd", Size: 1500, GBps: 2},
		{Kernel: "gfni", Op: "muladd", Size: 1500, GBps: 30},
	}}
	slowHost := &GF256BenchResult{K: 8, Points: []GF256Point{
		{Kernel: "portable", Op: "muladd", Size: 1500, GBps: 1},
		{Kernel: "gfni", Op: "muladd", Size: 1500, GBps: 15},
	}}
	if bad := CompareGF256Baselines(base, slowHost, 0.20, nil); len(bad) != 0 {
		t.Fatalf("a uniformly slower host flagged: %v", bad)
	}
	scalarFallback := &GF256BenchResult{K: 8, Points: []GF256Point{
		{Kernel: "portable", Op: "muladd", Size: 1500, GBps: 2},
		{Kernel: "gfni", Op: "muladd", Size: 1500, GBps: 2.1},
	}}
	if bad := CompareGF256Baselines(base, scalarFallback, 0.20, nil); len(bad) != 1 || !strings.Contains(bad[0], "gfni/muladd/1500B") {
		t.Fatalf("an arm at portable speed not flagged: %v", bad)
	}

	// A cell measured at 0 timed nothing and fails, whatever the arm and
	// whatever the baseline held; a cell the host lacks (no gfni here) is
	// skipped.
	zero := &GF256BenchResult{K: 8, Points: []GF256Point{
		{Kernel: "portable", Op: "muladd", Size: 1500, GBps: 0},
		{Kernel: "reference", Op: "muladd", Size: 1500, GBps: 0},
	}}
	withReference := &GF256BenchResult{K: 8, Points: append(base.Points[:2:2],
		GF256Point{Kernel: "reference", Op: "muladd", Size: 1500, GBps: 0})}
	bad = CompareGF256Baselines(withReference, zero, 0.20, []string{"portable"})
	if want := []string{"portable/muladd/1500B: measured 0.00 GB/s", "reference/muladd/1500B: measured 0.00 GB/s"}; !slices.Equal(bad, want) {
		t.Fatalf("zero cells: got %v, want %v", bad, want)
	}
}
