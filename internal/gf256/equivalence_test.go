package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Differential fuzzing across kernel arms. Every arm the host CPU supports
// (asm SIMD forms included) plus the portable SWAR kernel is crossed against
// the byte-wise reference kernel on the same inputs for all three combine
// entry points. Any divergence is a correctness bug in exactly one place:
// the faster arm.
//
// The same scalars also derive one single-row case (checkSingleRowEquivalence):
// every arm's mul/mulAdd pair, and MulSlice/MulAddSlice/ScaleSlice with that
// arm active, against the byte-wise reference loops.
//
// The fuzzer derives everything from five scalars so the corpus stays small
// and minimizable. The derivation deliberately exercises the regions where
// SIMD kernels break in practice:
//
//   - sizes straddling the vector block (sub-16-byte payloads, 16/32/64-byte
//     boundaries, and +-1 off them) so aligned-prefix/scalar-tail splits and
//     their hand-off are covered;
//   - rows placed at an odd offset inside a larger backing array so no input
//     pointer is 16-byte aligned (the asm uses unaligned loads; this proves
//     it);
//   - coefficient vectors biased towards 0 and 1 so the zero-skip and
//     identity-copy short-circuits cross the same inputs as the general
//     multiply, including all-zero vectors (output must be all zero bytes).

// fuzzArms returns the kernels under test (everything but the reference
// oracle itself) honoring any GF256_KERNEL pin only for ordering, never for
// exclusion: differential coverage should not silently narrow.
func fuzzArms(t testing.TB) []string {
	var arms []string
	for _, name := range AvailableKernels() {
		if name != KernelReference {
			arms = append(arms, name)
		}
	}
	if len(arms) == 0 {
		t.Fatal("no kernel arms to test")
	}
	return arms
}

// testArm is one arm's single-row pair under test. The label is the arm's
// name except for bodies dispatch would not pick on this CPU (archTestArms).
type testArm struct {
	label string
	*arm
}

// testArms returns every single-row pair this machine can execute: the
// arms dispatch offers (reference included — it must agree with its own
// oracle through the free functions too) plus the bodies archTestArms adds.
func testArms() []testArm {
	var tas []testArm
	for _, a := range arms() {
		tas = append(tas, testArm{a.name, a})
	}
	return append(tas, archTestArms()...)
}

// restoreActive puts the arm active now back when the test ends.
func restoreActive(t testing.TB) {
	prev := active.Load()
	t.Cleanup(func() { active.Store(prev) })
}

// forEachArm runs f as one subtest per testArms entry with that arm
// active, and restores the selection afterwards.
func forEachArm(t *testing.T, f func(t *testing.T)) {
	restoreActive(t)
	for _, ta := range testArms() {
		active.Store(ta.arm)
		t.Run(ta.label, f)
	}
}

// checkSingleRowEquivalence derives one single-row case from the fuzz
// scalars — length 0..97 (sizeRaw), src and dst at different odd offsets
// inside larger backings (offRaw), c zero, one or random (cRaw) — and
// crosses every arm's pair, then the free functions with that arm active,
// against the reference loops, disjoint and with dst == src exactly.
func checkSingleRowEquivalence(t *testing.T, seed int64, sizeRaw, offRaw, cRaw uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := int(sizeRaw) % 98
	off := int(offRaw)%31 | 1
	c := byte(cRaw % 3) // 0 and 1 as they are, 2 stands for random
	if c == 2 {
		c = byte(2 + rng.Intn(254))
	}
	backing := make([]byte, off+n+7)
	rng.Read(backing)
	src := backing[off : off+n]
	base := make([]byte, n)
	rng.Read(base)

	wantMul := make([]byte, n)
	mulSliceGeneric(wantMul, src, c)
	wantAdd := append([]byte(nil), base...)
	mulAddSliceGeneric(wantAdd, src, c)
	wantSelf := append([]byte(nil), src...) // src ^= c*src
	mulAddSliceGeneric(wantSelf, src, c)

	// fresh returns a copy of b at an odd offset different from src's.
	fresh := func(b []byte) []byte {
		buf := make([]byte, off+2+n)
		copy(buf[off+2:], b)
		return buf[off+2:]
	}
	check := func(label, op string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s %s diverges from reference (n=%d off=%d c=%d)\n got %x\nwant %x", label, op, n, off, c, got, want)
		}
	}
	restoreActive(t)
	for _, ta := range testArms() {
		got := fresh(bytes.Repeat([]byte{0xa5}, n)) // dirty: mul must overwrite
		ta.mul(got, src, c)
		check(ta.label, "mul", got, wantMul)
		got = fresh(src)
		ta.mul(got, got, c)
		check(ta.label, "mul aliased", got, wantMul)
		got = fresh(base)
		ta.mulAdd(got, src, c)
		check(ta.label, "mulAdd", got, wantAdd)
		got = fresh(src)
		ta.mulAdd(got, got, c)
		check(ta.label, "mulAdd aliased", got, wantSelf)

		active.Store(ta.arm)
		got = fresh(bytes.Repeat([]byte{0x5a}, n))
		MulSlice(got, src, c)
		check(ta.label, "MulSlice", got, wantMul)
		got = fresh(src)
		ScaleSlice(got, c)
		check(ta.label, "ScaleSlice", got, wantMul)
		got = fresh(base)
		MulAddSlice(got, src, c)
		check(ta.label, "MulAddSlice", got, wantAdd)
		got = fresh(src)
		MulAddSlice(got, got, c)
		check(ta.label, "MulAddSlice aliased", got, wantSelf)
	}
}

// buildFuzzCase derives rows, coefficient vectors, and unaligned backing
// storage from the fuzz scalars.
type fuzzCase struct {
	k      int
	size   int
	np     int      // products for CombineMany
	rows   [][]byte // k rows of size bytes, unaligned within their backing
	coeffs [][]byte // np coefficient vectors of length k
}

func buildFuzzCase(seed int64, kRaw, sizeRaw, offRaw, npRaw uint8) fuzzCase {
	rng := rand.New(rand.NewSource(seed))
	k := int(kRaw)%48 + 1
	// Map sizeRaw onto a mix of block boundaries and arbitrary lengths:
	// even inputs pick len in [1,96] directly (dense sub-vector coverage),
	// odd inputs pick a boundary multiple with a -1/0/+1 nudge.
	size := int(sizeRaw)%96 + 1
	if sizeRaw%2 == 1 {
		size = (int(sizeRaw/2)%40 + 1) * 16
		switch sizeRaw % 3 {
		case 0:
			size--
		case 2:
			size++
		}
	}
	off := int(offRaw) % 31
	np := int(npRaw)%4 + 1

	fc := fuzzCase{k: k, size: size, np: np}
	fc.rows = make([][]byte, k)
	for i := range fc.rows {
		backing := make([]byte, off+size+7)
		rng.Read(backing)
		fc.rows[i] = backing[off : off+size]
	}
	fc.coeffs = make([][]byte, np)
	for p := range fc.coeffs {
		cv := make([]byte, k)
		mode := rng.Intn(6)
		for i := range cv {
			switch mode {
			case 0: // all zero
			case 1: // all one
				cv[i] = 1
			case 2: // sparse: mostly zeros
				if rng.Intn(4) == 0 {
					cv[i] = byte(rng.Intn(256))
				}
			case 3: // zero/one mix
				cv[i] = byte(rng.Intn(2))
			default: // dense random
				cv[i] = byte(rng.Intn(256))
			}
		}
		fc.coeffs[p] = cv
	}
	return fc
}

// checkKernelEquivalence runs one derived case through every arm and fails
// on the first byte diverging from the reference.
func checkKernelEquivalence(t *testing.T, fc fuzzCase) {
	t.Helper()
	ref, err := NewKernelNamed(KernelReference)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetRows(fc.rows)

	// Oracle outputs.
	wantCombine := make([][]byte, fc.np)
	for p := range wantCombine {
		wantCombine[p] = make([]byte, fc.size)
		ref.Combine(wantCombine[p], fc.coeffs[p])
	}
	wantMany := make([][]byte, fc.np)
	for p := range wantMany {
		wantMany[p] = make([]byte, fc.size)
	}
	ref.CombineMany(wantMany, fc.coeffs)
	wantInto := make([]byte, fc.size)
	ref.CombineInto(wantInto, fc.rows, fc.coeffs[0])

	for _, name := range fuzzArms(t) {
		for _, w := range combineWidths(name) {
			label := name
			if w != 0 {
				label = fmt.Sprintf("%s/%dB", name, w)
			}
			withCombineWidth(w, func() { checkArmEquivalence(t, fc, name, label, wantCombine, wantMany, wantInto) })
		}
	}
}

// checkArmEquivalence runs one case through the named arm's three combine
// entry points and compares each with the oracle's output.
func checkArmEquivalence(t *testing.T, fc fuzzCase, name, label string, wantCombine, wantMany [][]byte, wantInto []byte) {
	t.Helper()
	kn, err := NewKernelNamed(name)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	kn.SetRows(fc.rows)

	// Combine: dst starts dirty to catch arms that accumulate instead
	// of overwrite. Dst is also placed unaligned.
	for p := 0; p < fc.np; p++ {
		backing := bytes.Repeat([]byte{0xa5}, fc.size+13)
		got := backing[13:]
		kn.Combine(got, fc.coeffs[p])
		if !bytes.Equal(got, wantCombine[p]) {
			t.Fatalf("%s Combine diverges from reference (k=%d size=%d p=%d coeffs=%x)\n got %x\nwant %x",
				label, fc.k, fc.size, p, fc.coeffs[p], got, wantCombine[p])
		}
	}

	gotMany := make([][]byte, fc.np)
	for p := range gotMany {
		gotMany[p] = bytes.Repeat([]byte{0x3c}, fc.size)
	}
	kn.CombineMany(gotMany, fc.coeffs)
	for p := range gotMany {
		if !bytes.Equal(gotMany[p], wantMany[p]) {
			t.Fatalf("%s CombineMany diverges from reference (k=%d size=%d p=%d)",
				label, fc.k, fc.size, p)
		}
	}

	gotInto := bytes.Repeat([]byte{0x5a}, fc.size)
	kn.CombineInto(gotInto, fc.rows, fc.coeffs[0])
	if !bytes.Equal(gotInto, wantInto) {
		t.Fatalf("%s CombineInto diverges from reference (k=%d size=%d coeffs=%x)\n got %x\nwant %x",
			label, fc.k, fc.size, fc.coeffs[0], gotInto, wantInto)
	}
}

func FuzzKernelEquivalence(f *testing.F) {
	// Seeds cover: tiny payloads, exact block multiples, off-by-one around
	// 16/32/64, unaligned offsets, single-row, and many-row cases.
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))    // k=1 size=1 aligned
	f.Add(int64(2), uint8(31), uint8(14), uint8(0), uint8(1))  // size=15 sub-block
	f.Add(int64(3), uint8(31), uint8(15), uint8(0), uint8(1))  // size=16 exact
	f.Add(int64(4), uint8(31), uint8(16), uint8(0), uint8(1))  // size=17
	f.Add(int64(5), uint8(31), uint8(3), uint8(5), uint8(2))   // 32-block, unaligned
	f.Add(int64(6), uint8(31), uint8(7), uint8(1), uint8(2))   // 64-boundary region
	f.Add(int64(7), uint8(15), uint8(62), uint8(3), uint8(3))  // size=63 (asm prefix + 31B tail)
	f.Add(int64(8), uint8(15), uint8(9), uint8(30), uint8(0))  // 79, worst unalignment
	f.Add(int64(9), uint8(47), uint8(95), uint8(17), uint8(3)) // k=48 wide
	f.Add(int64(10), uint8(0), uint8(77), uint8(11), uint8(1)) // k=1 odd size
	// Single-row edges (length = sizeRaw%98, c mode = npRaw%3): empty, the
	// dispatch cutoff and its neighbours, the 64-byte loop edge, the
	// longest length with c = 0 and c = 1.
	f.Add(int64(11), uint8(0), uint8(98), uint8(1), uint8(2))
	f.Add(int64(12), uint8(0), uint8(31), uint8(2), uint8(2))
	f.Add(int64(13), uint8(0), uint8(32), uint8(4), uint8(2))
	f.Add(int64(14), uint8(0), uint8(33), uint8(30), uint8(2))
	f.Add(int64(15), uint8(0), uint8(65), uint8(8), uint8(2))
	f.Add(int64(16), uint8(0), uint8(97), uint8(6), uint8(0))
	f.Add(int64(17), uint8(0), uint8(97), uint8(6), uint8(1))
	// Lengths 28 mod 32 — a 1500-byte row's tail — below, at and past one
	// 64-byte loop: the SIMD arms finish them on padded blocks.
	f.Add(int64(18), uint8(5), uint8(28), uint8(3), uint8(2))
	f.Add(int64(19), uint8(5), uint8(60), uint8(9), uint8(2))
	f.Add(int64(20), uint8(5), uint8(92), uint8(30), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, sizeRaw, offRaw, npRaw uint8) {
		checkKernelEquivalence(t, buildFuzzCase(seed, kRaw, sizeRaw, offRaw, npRaw))
		checkSingleRowEquivalence(t, seed, sizeRaw, offRaw, npRaw)
	})
}

// TestKernelEquivalenceSweep is the deterministic companion to the fuzzer:
// a fixed sweep over every size 1..200 crossed with several row counts, so
// plain `go test` (and the portable-only CI leg) still covers every
// prefix/tail split without fuzzing infrastructure.
func TestKernelEquivalenceSweep(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 32} {
		for size := 1; size <= 200; size++ {
			fc := buildFuzzCase(int64(k*1000+size), uint8(k-1), 0, uint8(size%31), 2)
			fc.size = size
			rng := rand.New(rand.NewSource(int64(size)))
			for i := range fc.rows {
				backing := make([]byte, (size%31)+size)
				rng.Read(backing)
				fc.rows[i] = backing[size%31:]
			}
			checkKernelEquivalence(t, fc)
		}
	}
	// Single-row pairs: every length 0..97 (the 16/32/64-byte block edges
	// and the dispatch cutoff with their neighbours all fall inside), three
	// odd offsets, c zero, one and random.
	for n := 0; n < 98; n++ {
		for _, off := range []uint8{0, 12, 30} {
			for c := uint8(0); c < 3; c++ {
				checkSingleRowEquivalence(t, int64(n)<<8|int64(off), uint8(n), off, c)
			}
		}
	}
}

// TestKernelEquivalenceSeedCorpus replays the checked-in fuzz seeds under
// plain `go test` so the corpus cannot rot.
func TestKernelEquivalenceSeedCorpus(t *testing.T) {
	seeds := [][5]uint64{
		{1, 0, 0, 0, 0}, {2, 31, 14, 0, 1}, {3, 31, 15, 0, 1},
		{4, 31, 16, 0, 1}, {5, 31, 3, 5, 2}, {6, 31, 7, 1, 2},
		{7, 15, 62, 3, 3}, {8, 15, 9, 30, 0}, {9, 47, 95, 17, 3},
		{10, 0, 77, 11, 1},
		{11, 0, 98, 1, 2}, {12, 0, 31, 2, 2}, {13, 0, 32, 4, 2},
		{14, 0, 33, 30, 2}, {15, 0, 65, 8, 2}, {16, 0, 97, 6, 0},
		{17, 0, 97, 6, 1},
		{18, 5, 28, 3, 2}, {19, 5, 60, 9, 2}, {20, 5, 92, 30, 2},
	}
	for _, s := range seeds {
		t.Run(fmt.Sprintf("seed%d", s[0]), func(t *testing.T) {
			checkKernelEquivalence(t, buildFuzzCase(int64(s[0]), uint8(s[1]), uint8(s[2]), uint8(s[3]), uint8(s[4])))
			checkSingleRowEquivalence(t, int64(s[0]), uint8(s[2]), uint8(s[3]), uint8(s[4]))
		})
	}
}

// TestArmTailsMatchReference crosses every single-row body this machine can
// run — mul, mulAdd and, where the arm has one, mulAdd2 — with the byte-wise
// reference loops on every length 0..200, so every split into vector prefix
// and padded tail block occurs, disjoint and with dst == src exactly. Each
// destination sits between guard bytes: a tail finished on a whole block
// must not write past the slice, before or after.
func TestArmTailsMatchReference(t *testing.T) {
	const guard = 40 // more than one block on either side
	rng := rand.New(rand.NewSource(28))
	for _, ta := range testArms() {
		for n := 0; n <= 200; n++ {
			c1, c2 := byte(2+rng.Intn(254)), byte(rng.Intn(256))
			a, b, base := make([]byte, n), make([]byte, n), make([]byte, n)
			rng.Read(a)
			rng.Read(b)
			rng.Read(base)
			// run hands op a guarded copy of init as dst (and as src too when
			// aliased) and compares with the reference's result.
			run := func(opName string, init []byte, aliased bool, op, ref func(dst, src []byte)) {
				t.Helper()
				buf := bytes.Repeat([]byte{0xc3}, guard+n+guard)
				dst := buf[guard : guard+n : guard+n]
				copy(dst, init)
				want := append([]byte(nil), init...)
				if aliased {
					op(dst, dst)
					ref(want, want)
				} else {
					op(dst, a)
					ref(want, a)
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s %s n=%d aliased=%v diverges from reference\n got %x\nwant %x", ta.label, opName, n, aliased, dst, want)
				}
				for i, g := range buf {
					if (i < guard || i >= guard+n) && g != 0xc3 {
						t.Fatalf("%s %s n=%d aliased=%v wrote outside dst, at offset %d", ta.label, opName, n, aliased, i-guard)
					}
				}
			}
			for _, aliased := range []bool{false, true} {
				init := base
				if aliased {
					init = a
				}
				run("mul", init, aliased,
					func(dst, src []byte) { ta.mul(dst, src, c1) },
					func(dst, src []byte) { mulSliceGeneric(dst, src, c1) })
				run("mulAdd", init, aliased,
					func(dst, src []byte) { ta.mulAdd(dst, src, c1) },
					func(dst, src []byte) { mulAddSliceGeneric(dst, src, c1) })
				if ta.mulAdd2 != nil {
					// Aliased: dst is the first source. The second pass of the
					// reference must not read the first pass's output.
					run("mulAdd2", init, aliased,
						func(dst, src []byte) { ta.mulAdd2(dst, src, b, c1, c2) },
						func(dst, src []byte) {
							first := append([]byte(nil), src...)
							mulAddSliceGeneric(dst, first, c1)
							mulAddSliceGeneric(dst, b, c2)
						})
				}
			}
		}
	}
}
