package cpufeat

import (
	"runtime"
	"testing"
)

// TestFeaturesAreNested checks the implications the SIMD bodies rely on:
// every wider extension is reported only together with what it builds on,
// and nothing at all off amd64.
func TestFeaturesAreNested(t *testing.T) {
	f := X86
	t.Logf("%s: %+v", runtime.GOARCH, f)
	if runtime.GOARCH != "amd64" && f != (Features{}) {
		t.Fatalf("features reported off amd64: %+v", f)
	}
	if f.GFNI && !f.AVX2 {
		t.Error("GFNI without AVX2")
	}
	if (f.AVX512BW || f.AVX512DQ) && !f.AVX2 {
		t.Error("AVX-512 without AVX2")
	}
	if f != detect() {
		t.Error("a second detection disagrees with the first")
	}
}
