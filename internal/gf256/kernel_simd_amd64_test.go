package gf256

// archTestArms adds the single-row bodies archArms leaves out on this CPU
// although it can run them: on an AVX2 machine dispatch always takes the
// 32-byte pshufb form, so the 16-byte SSSE3 form is crossed only here.
func archTestArms() []testArm {
	if cpuFeat.avx2 && cpuFeat.ssse3 {
		return []testArm{{"pshufb-ssse3", &pshufbArm}}
	}
	return nil
}
