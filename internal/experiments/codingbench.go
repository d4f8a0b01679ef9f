package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/gf256"
)

// Coding-plane benchmark: per-kernel GF(256) combine throughput across
// payload size classes (the `morebench -baseline` regression baseline).

// GF256Point is one measured cell: a kernel arm, combine flavor, and
// payload size, with throughput in processed source gigabytes per second
// (K*size bytes per combine).
type GF256Point struct {
	Kernel string  `json:"kernel"`
	Op     string  `json:"op"`
	Size   int     `json:"size"`
	GBps   float64 `json:"gbps"`
}

// GF256BenchResult is the full grid plus the context needed to interpret
// it later (BENCH_gf256.json).
type GF256BenchResult struct {
	K      int          `json:"k"`
	Points []GF256Point `json:"points"`
}

// GF256SizeClasses are the benchmarked payload sizes: a sub-vector runt, a
// single-cache-line class, the paper's 1500 B MTU, and a jumbo class.
var GF256SizeClasses = []int{60, 256, 1500, 8192}

// GF256Bench measures Combine and CombineInto throughput for every named
// kernel over the size classes, spending roughly dur per cell. K rows of
// each size are combined per op; throughput counts the K*size source bytes
// each combine reads, matching the gf256 package benchmarks.
func GF256Bench(kernels []string, k int, sizes []int, dur time.Duration) *GF256BenchResult {
	res := &GF256BenchResult{K: k}
	rng := rand.New(rand.NewSource(99))
	for _, name := range kernels {
		kn, err := gf256.NewKernelNamed(name)
		if err != nil {
			continue // arm not available on this host
		}
		for _, size := range sizes {
			rows := make([][]byte, k)
			for i := range rows {
				rows[i] = make([]byte, size)
				rng.Read(rows[i])
			}
			kn.SetRows(rows)
			coeffs := make([]byte, k)
			rng.Read(coeffs)
			dst := make([]byte, size)

			measure := func(op func()) float64 {
				// Calibrate a batch count so the timed section dominates
				// clock overhead, then run until dur elapses.
				const batch = 64
				var ops int
				start := time.Now()
				for time.Since(start) < dur {
					for i := 0; i < batch; i++ {
						op()
					}
					ops += batch
				}
				elapsed := time.Since(start).Seconds()
				return float64(ops) * float64(k*size) / elapsed / 1e9
			}

			res.Points = append(res.Points, GF256Point{
				Kernel: name, Op: "combine", Size: size,
				GBps: measure(func() { kn.Combine(dst, coeffs) }),
			})
			res.Points = append(res.Points, GF256Point{
				Kernel: name, Op: "combineinto", Size: size,
				GBps: measure(func() { kn.CombineInto(dst, rows, coeffs) }),
			})
		}
	}
	return res
}

// Table renders the grid with kernels as rows grouped by op.
func (r *GF256BenchResult) Table() string {
	var b strings.Builder
	sizes := map[int]bool{}
	for _, p := range r.Points {
		sizes[p.Size] = true
	}
	var cols []int
	for s := range sizes {
		cols = append(cols, s)
	}
	sort.Ints(cols)
	for _, op := range []string{"combine", "combineinto"} {
		fmt.Fprintf(&b, "%s (GB/s, K=%d):\n", op, r.K)
		fmt.Fprintf(&b, "  %-10s", "kernel")
		for _, s := range cols {
			fmt.Fprintf(&b, "%10dB", s)
		}
		b.WriteString("\n")
		var kernels []string
		seen := map[string]bool{}
		for _, p := range r.Points {
			if p.Op == op && !seen[p.Kernel] {
				seen[p.Kernel] = true
				kernels = append(kernels, p.Kernel)
			}
		}
		for _, kn := range kernels {
			fmt.Fprintf(&b, "  %-10s", kn)
			for _, s := range cols {
				for _, p := range r.Points {
					if p.Op == op && p.Kernel == kn && p.Size == s {
						fmt.Fprintf(&b, "%11.2f", p.GBps)
					}
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Cell returns the throughput for one (kernel, op, size) or 0 if absent.
func (r *GF256BenchResult) Cell(kernel, op string, size int) float64 {
	for _, p := range r.Points {
		if p.Kernel == kernel && p.Op == op && p.Size == size {
			return p.GBps
		}
	}
	return 0
}

// CompareGF256Baselines returns one message per cell of cur that regressed
// more than frac (e.g. 0.20) below base. Cells present in only one result
// are ignored (kernel availability differs across hosts); the caller
// decides which kernels gate CI.
func CompareGF256Baselines(base, cur *GF256BenchResult, frac float64, kernels []string) []string {
	gate := map[string]bool{}
	for _, k := range kernels {
		gate[k] = true
	}
	var bad []string
	for _, bp := range base.Points {
		if !gate[bp.Kernel] {
			continue
		}
		got := cur.Cell(bp.Kernel, bp.Op, bp.Size)
		if got == 0 {
			continue
		}
		if got < bp.GBps*(1-frac) {
			bad = append(bad, fmt.Sprintf("%s/%s/%dB: %.2f GB/s vs baseline %.2f (-%.0f%%)",
				bp.Kernel, bp.Op, bp.Size, got, bp.GBps, 100*(1-got/bp.GBps)))
		}
	}
	return bad
}
