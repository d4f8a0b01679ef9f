package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/gf256"
)

// Coding-plane benchmark: per-kernel GF(256) combine and single-row
// multiply throughput across payload size classes (the `morebench
// -baseline` regression baseline).

// GF256Point is one measured cell: a kernel arm, operation, and payload
// size, with throughput in processed source gigabytes per second (K*size
// bytes per combine, size bytes per muladd).
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

// muladdSizes are the single-row sizes: a K = 32 code vector, the shortest
// row the vector arms take, and the paper's 1500 B payload.
var muladdSizes = []int{32, 1500}

// gf256Ops are the benchmarked operations, in table order.
var gf256Ops = []string{"combine", "combineinto", "muladd"}

// GF256Bench measures Combine and CombineInto throughput for every named
// kernel over the size classes, and gf256.MulAddSlice with that kernel
// active over muladdSizes, spending roughly dur per cell and reporting its
// fastest fifth. K rows of each size are combined per op; throughput counts
// the K*size source bytes each combine reads, matching the gf256 package
// benchmarks.
//
// It makes each arm in turn the process-wide active kernel (gf256.SetKernel)
// and restores the previous one on return, so it must not run concurrently
// with any other gf256 user: that caller would silently compute on the
// portable or reference arm for the duration.
func GF256Bench(kernels []string, k int, sizes []int, dur time.Duration) *GF256BenchResult {
	res := &GF256BenchResult{K: k}
	rng := rand.New(rand.NewSource(99))
	measure := func(bytes int, op func()) float64 {
		// The fastest of five windows of dur/5, each run in batches so the
		// timed section dominates clock overhead: on a shared runner a
		// mean over dur absorbs every burst of steal, and the ratio gate
		// divides two such cells.
		const windows, batch = 5, 64
		var best float64
		for w := 0; w < windows; w++ {
			var ops int
			start := time.Now()
			for time.Since(start) < dur/windows {
				for i := 0; i < batch; i++ {
					op()
				}
				ops += batch
			}
			best = max(best, float64(ops)*float64(bytes)/time.Since(start).Seconds()/1e9)
		}
		return best
	}
	defer gf256.SetKernel(gf256.ActiveKernel()) // the name it held: cannot fail
	for _, name := range kernels {
		if gf256.SetKernel(name) != nil {
			continue // arm not available on this host
		}
		kn := gf256.NewKernel()
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

			res.Points = append(res.Points, GF256Point{
				Kernel: name, Op: "combine", Size: size,
				GBps: measure(k*size, func() { kn.Combine(dst, coeffs) }),
			})
			res.Points = append(res.Points, GF256Point{
				Kernel: name, Op: "combineinto", Size: size,
				GBps: measure(k*size, func() { kn.CombineInto(dst, rows, coeffs) }),
			})
		}
		for _, size := range muladdSizes {
			src := make([]byte, size)
			rng.Read(src)
			dst := make([]byte, size)
			res.Points = append(res.Points, GF256Point{
				Kernel: name, Op: "muladd", Size: size,
				GBps: measure(size, func() { gf256.MulAddSlice(dst, src, 0x53) }),
			})
		}
	}
	return res
}

// Table renders the grid with kernels as rows grouped by op.
func (r *GF256BenchResult) Table() string {
	var b strings.Builder
	for _, op := range gf256Ops {
		var cols []int
		var kernels []string
		for _, p := range r.Points {
			if p.Op != op {
				continue
			}
			if !slices.Contains(cols, p.Size) {
				cols = append(cols, p.Size)
			}
			if !slices.Contains(kernels, p.Kernel) {
				kernels = append(kernels, p.Kernel)
			}
		}
		if len(cols) == 0 {
			continue
		}
		slices.Sort(cols)
		if op == "muladd" {
			fmt.Fprintf(&b, "%s (GB/s, one row):\n", op)
		} else {
			fmt.Fprintf(&b, "%s (GB/s, K=%d):\n", op, r.K)
		}
		fmt.Fprintf(&b, "  %-10s", "kernel")
		for _, s := range cols {
			fmt.Fprintf(&b, "%10dB", s)
		}
		b.WriteString("\n")
		for _, kn := range kernels {
			fmt.Fprintf(&b, "  %-10s", kn)
			for _, s := range cols {
				v, _ := r.Cell(kn, op, s)
				fmt.Fprintf(&b, "%11.2f", v)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Cell returns the throughput for one (kernel, op, size) and whether the
// result holds that cell at all: an arm the host lacks has no cells, while a
// cell measured at 0 is present.
func (r *GF256BenchResult) Cell(kernel, op string, size int) (float64, bool) {
	for _, p := range r.Points {
		if p.Kernel == kernel && p.Op == op && p.Size == size {
			return p.GBps, true
		}
	}
	return 0, false
}

// CompareGF256Baselines returns one message per cell of cur that regressed
// more than frac (e.g. 0.20) below base. The kernels named gate on
// absolute throughput, which only means something against a baseline from
// the same machine. Every other arm except the reference oracle gates on
// its throughput relative to the portable arm's in the same run — how many
// times the vector form beats the table form does not depend on the host's
// clock or load — so a SIMD arm that quietly falls back to a scalar loop
// fails against a baseline from any machine with that arm. A baseline cell
// that cur lacks is ignored (kernel availability differs across hosts); one
// that cur measured at 0 is reported, since a run that timed nothing cannot
// pass a gate.
func CompareGF256Baselines(base, cur *GF256BenchResult, frac float64, kernels []string) []string {
	var bad []string
	for _, bp := range base.Points {
		got, ok := cur.Cell(bp.Kernel, bp.Op, bp.Size)
		switch {
		case !ok:
			continue
		case !(got > 0):
			bad = append(bad, fmt.Sprintf("%s/%s/%dB: measured %.2f GB/s", bp.Kernel, bp.Op, bp.Size, got))
			continue
		}
		want, unit := bp.GBps, "GB/s"
		if !slices.Contains(kernels, bp.Kernel) {
			if bp.Kernel == gf256.KernelReference {
				continue
			}
			basePortable, _ := base.Cell(gf256.KernelPortable, bp.Op, bp.Size)
			curPortable, _ := cur.Cell(gf256.KernelPortable, bp.Op, bp.Size)
			if basePortable == 0 || curPortable == 0 {
				continue
			}
			want, got, unit = want/basePortable, got/curPortable, "x portable"
		}
		if got < want*(1-frac) {
			bad = append(bad, fmt.Sprintf("%s/%s/%dB: %.2f %s vs baseline %.2f (-%.0f%%)",
				bp.Kernel, bp.Op, bp.Size, got, unit, want, 100*(1-got/want)))
		}
	}
	return bad
}
