package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestGF256BenchAndBaselineCompare(t *testing.T) {
	res := GF256Bench([]string{"portable", "reference"}, 8, []int{64, 256}, 5*time.Millisecond)
	if len(res.Points) != 8 { // 2 kernels x 2 ops x 2 sizes
		t.Fatalf("got %d points, want 8", len(res.Points))
	}
	for _, p := range res.Points {
		if p.GBps <= 0 {
			t.Fatalf("cell %s/%s/%d measured %.3f GB/s", p.Kernel, p.Op, p.Size, p.GBps)
		}
	}
	if !strings.Contains(res.Table(), "portable") {
		t.Fatal("table missing kernel row")
	}
	// Unknown kernels are skipped, not fatal.
	if n := len(GF256Bench([]string{"no-such-arm"}, 8, []int{64}, time.Millisecond).Points); n != 0 {
		t.Fatalf("unknown kernel produced %d points", n)
	}

	// A 30% drop on a gated kernel is flagged; ungated kernels are not.
	cur := &GF256BenchResult{K: 8}
	for _, p := range res.Points {
		q := p
		q.GBps *= 0.7
		cur.Points = append(cur.Points, q)
	}
	bad := CompareGF256Baselines(res, cur, 0.20, []string{"portable"})
	if len(bad) != 4 {
		t.Fatalf("got %d regressions, want 4 (portable cells only): %v", len(bad), bad)
	}
	if len(CompareGF256Baselines(res, res, 0.20, []string{"portable", "reference"})) != 0 {
		t.Fatal("identical results flagged as regression")
	}
}
