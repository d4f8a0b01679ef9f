package gf256

// Kernel implementation dispatch. The package selects the best arm the CPU
// supports at startup; the GF256_KERNEL environment variable forces a
// specific one (the CI matrix runs the whole test suite with
// GF256_KERNEL=portable so the fallback arm can never rot), and SetKernel
// switches at runtime (the coding microbenchmarks time each arm). The
// selection is one atomic pointer to the active arm. The slice operations
// MulSlice, MulAddSlice and ScaleSlice load it on every call, so they follow
// a switch at once; kernels created afterwards are built on it, while
// existing Kernel values keep the implementation they were built with.

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Names of the kernel implementations accepted by SetKernel, newKernelNamed
// and the GF256_KERNEL environment variable.
const (
	// KernelAuto re-runs the hardware detection and selects the best
	// supported implementation.
	KernelAuto = "auto"
	// KernelPortable is the word-wise SWAR form (kernel_generic.go). Always
	// available; the escape hatch when an accelerated arm misbehaves.
	KernelPortable = "portable"
	// KernelReference is the byte-wise mulTable loop (reference.go). Always
	// available but never auto-selected; it exists as the fuzzing oracle.
	KernelReference = "reference"
	// KernelPSHUFB is the amd64 16-byte-nibble-shuffle form (SSSE3, widened
	// to AVX2 when available).
	KernelPSHUFB = "pshufb"
	// KernelGFNI is the amd64 Galois-field-affine form (GFNI + AVX2).
	KernelGFNI = "gfni"
)

// arm is one kernel implementation: its name, and its single-row
// primitive pair — the one mul and one mulAdd that both its multi-row
// kernel and, while it is the active arm, MulSlice/MulAddSlice run on.
// The pair takes equal-length slices and any coefficient; dst may be src
// exactly, since every form (the three asm bodies included) loads a block
// of src before it stores that block of dst, but may not otherwise overlap
// it. The callers own the length check and the c == 0 / c == 1
// short-circuits.
type arm struct {
	name   string
	mul    func(dst, src []byte, c byte) // dst = c*src
	mulAdd func(dst, src []byte, c byte) // dst ^= c*src
	// mulAdd2 fuses two accumulate streams (dst ^= c1*a ^ c2*b) in one pass
	// over dst, halving the dst traffic of back-to-back mulAdd calls. Nil on
	// arms without a fused form.
	mulAdd2 func(dst, a, b []byte, c1, c2 byte)
}

var (
	portableArm  = arm{name: KernelPortable, mul: mulSliceWord, mulAdd: mulAddSliceWord}
	referenceArm = arm{name: KernelReference, mul: mulSliceGeneric, mulAdd: mulAddSliceGeneric}
)

// simdCutoff is the length below which MulSlice/MulAddSlice stay on the
// portable table loop whatever arm is active. It is the block of the gfni
// and AVX2 pshufb bodies: a shorter row gives them nothing to run, so the
// indirect call would only reach the byte-wise tail loop. Measured on
// gfni, table loop vs arm: 8.1 vs 12.6 ns at 12 B, 13.0 vs 14.7 ns at
// 24 B, 15.5 vs 5.0 ns at 32 B — which is why the innovation check and
// the decoder eliminate on whole K = 32 code vectors, one block, and not
// on the suffixes u[i:] that would do (PERFORMANCE.md, PR 20); short rows
// now mean batches of K < 32. End to end the choice is inside the noise
// (fig4-2 wall_cal_s, median of 8: cutoff 1 → 0.970 s, 16 → 0.950,
// 32 → 0.949, 64 → 0.970; PERFORMANCE.md, PR 16), so it is a constant,
// not a knob.
const simdCutoff = 32

// active is the arm SetKernel selected. The slice operations load it on
// every call from every experiment worker, so it is an atomic pointer, not
// a mutex-guarded name.
var active atomic.Pointer[arm]

func init() {
	if err := setKernelFromEnv(); err != nil {
		// A bad GF256_KERNEL must be loud, not silently fall back: the CI
		// portable leg depends on the variable actually forcing the arm.
		panic(err)
	}
}

// setKernelFromEnv selects the arm the GF256_KERNEL environment variable
// names, the one override of the automatic choice (unset means auto).
func setKernelFromEnv() error {
	name := os.Getenv("GF256_KERNEL")
	if err := SetKernel(name); err != nil {
		return fmt.Errorf("gf256: GF256_KERNEL=%q: %v", name, err)
	}
	return nil
}

// arms returns the implementations supported on this machine, best-first.
func arms() []*arm {
	return append(archArms(), &portableArm, &referenceArm)
}

// AvailableKernels returns the implementation names supported on this
// machine, best-first (the first entry is what auto selects; "reference"
// is always last).
func AvailableKernels() []string {
	var names []string
	for _, a := range arms() {
		names = append(names, a.name)
	}
	return names
}

// ActiveKernel returns the name of the implementation NewKernel currently
// builds and MulSlice/MulAddSlice currently run on.
func ActiveKernel() string { return active.Load().name }

// SetKernel selects the implementation NewKernel builds, and the slice
// operations run on, from now on. "auto" (or "") re-runs hardware detection
// and picks the best supported arm. It errors, leaving the selection
// unchanged, if the name is unknown or the CPU lacks the required features.
func SetKernel(name string) error {
	if name == "" || name == KernelAuto {
		name = arms()[0].name
	}
	a, err := findArm(name)
	if err != nil {
		return err
	}
	active.Store(a)
	return nil
}

// findArm returns the named implementation, or an error if this machine
// cannot run it.
func findArm(name string) (*arm, error) {
	for _, a := range arms() {
		if a.name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown or unsupported gf256 kernel %q (available: %v)", name, AvailableKernels())
}

// newKernel builds an empty Kernel backed by a's multi-row implementation.
func newKernel(a *arm) *Kernel {
	kn := &Kernel{name: a.name}
	switch a {
	case &portableArm:
		kn.impl = &swarKernel{}
	case &referenceArm:
		kn.impl = &refKernel{}
	default:
		kn.impl = newArchImpl(a)
	}
	return kn
}
