package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Add(byte(a), byte(b)), byte(a)^byte(b); got != want {
				t.Fatalf("Add(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if Mul(1, byte(a)) != byte(a) {
			t.Fatalf("1*a != a for a=%d", a)
		}
		if Mul(byte(a), 0) != 0 || Mul(0, byte(a)) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
	}
}

// mulSlow is an independent bitwise (Russian peasant) multiplication used to
// validate the table-based implementation.
func mulSlow(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a&0x80 != 0
		a <<= 1
		if hi {
			a ^= byte(Poly & 0xFF)
		}
		b >>= 1
	}
	return p
}

func TestMulMatchesBitwise(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestInv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Mul(byte(a), Inv(byte(a))) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestDivZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(x,0) did not panic")
		}
	}()
	Div(5, 0)
}

func TestDiv(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("(%d/%d)*%d != %d", a, b, b, a)
			}
		}
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	if Exp(255) != Exp(0) {
		t.Fatal("Exp not periodic with period 255")
	}
	if Exp(-1) != Exp(254) {
		t.Fatal("Exp of negative exponent not normalized")
	}
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

// Field axioms via testing/quick.

func TestQuickCommutativity(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAssociativity(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistributivity(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAdditiveInverse(t *testing.T) {
	f := func(a byte) bool { return Add(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 1500)
	rng.Read(src)
	dst := make([]byte, 1500)
	for _, c := range []byte{0, 1, 2, 37, 255} {
		MulSlice(dst, src, c)
		for i := range src {
			if dst[i] != Mul(src[i], c) {
				t.Fatalf("MulSlice c=%d index %d: got %d want %d", c, i, dst[i], Mul(src[i], c))
			}
		}
	}
}

func TestMulSliceAliasing(t *testing.T) {
	// ScaleSlice is MulSlice(v, v, c): dst == src exactly, on every arm.
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, n := range wordLengths {
			src := make([]byte, n)
			rng.Read(src)
			want := make([]byte, n)
			mulSliceGeneric(want, src, 9)
			ScaleSlice(src, 9)
			if !bytes.Equal(src, want) {
				t.Fatalf("in-place scale mismatch at n=%d: got %x want %x", n, src, want)
			}
		}
	})
}

func TestMulAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 777) // odd length exercises the unroll tail
	dst := make([]byte, 777)
	rng.Read(src)
	rng.Read(dst)
	orig := append([]byte(nil), dst...)
	MulAddSlice(dst, src, 77)
	for i := range dst {
		if dst[i] != Add(orig[i], Mul(src[i], 77)) {
			t.Fatalf("MulAddSlice index %d mismatch", i)
		}
	}
	// c == 0 must be a no-op.
	before := append([]byte(nil), dst...)
	MulAddSlice(dst, src, 0)
	if !bytes.Equal(dst, before) {
		t.Fatal("MulAddSlice with c=0 modified dst")
	}
	// c == 1 must be plain XOR.
	MulAddSlice(dst, src, 1)
	for i := range dst {
		if dst[i] != before[i]^src[i] {
			t.Fatalf("MulAddSlice c=1 index %d mismatch", i)
		}
	}
}

func TestAddSlice(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	AddSlice(a, b)
	if a[0] != 5 || a[1] != 7 || a[2] != 5 {
		t.Fatalf("AddSlice result %v", a)
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MulSlice":    func() { MulSlice(make([]byte, 2), make([]byte, 3), 1) },
		"MulAddSlice": func() { MulAddSlice(make([]byte, 2), make([]byte, 3), 1) },
		"AddSlice":    func() { AddSlice(make([]byte, 2), make([]byte, 3)) },
		"DotProduct":  func() { DotProduct(make([]byte, 2), make([]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDotProduct(t *testing.T) {
	a := []byte{1, 0, 3}
	b := []byte{5, 9, 1}
	want := Add(Mul(1, 5), Mul(3, 1))
	if got := DotProduct(a, b); got != want {
		t.Fatalf("DotProduct = %d, want %d", got, want)
	}
}

func TestSub(t *testing.T) {
	f := func(a, b byte) bool { return Add(Sub(a, b), b) == a }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulAddSlice1500(b *testing.B) {
	src := make([]byte, 1500)
	dst := make([]byte, 1500)
	rand.New(rand.NewSource(3)).Read(src)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(dst, src, byte(i)|1)
	}
}

func BenchmarkMul(b *testing.B) {
	var s byte
	for i := 0; i < b.N; i++ {
		s ^= Mul(byte(i), byte(i>>8))
	}
	_ = s
}
