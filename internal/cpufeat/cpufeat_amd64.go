package cpufeat

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (only valid when CPUID reports OSXSAVE).
func xgetbv() (eax, edx uint32)

func detect() Features {
	var f Features
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	f.SSSE3 = ecx1&(1<<9) != 0
	// AVX requires the OS to have enabled XMM+YMM state saving (OSXSAVE,
	// then XCR0 bits 1 and 2); AVX-512 also the opmask, upper-ZMM and
	// high-ZMM states (bits 5, 6 and 7).
	osxsave := ecx1&(1<<27) != 0
	avxHW := ecx1&(1<<28) != 0
	ymmOS, zmmOS := false, false
	if osxsave {
		xlo, _ := xgetbv()
		ymmOS = xlo&0x6 == 0x6
		zmmOS = xlo&0xe6 == 0xe6
	}
	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ := cpuid(7, 0)
		f.AVX2 = avxHW && ymmOS && ebx7&(1<<5) != 0
		f.GFNI = f.AVX2 && ecx7&(1<<8) != 0
		avx512F := f.AVX2 && zmmOS && ebx7&(1<<16) != 0
		f.AVX512DQ = avx512F && ebx7&(1<<17) != 0
		f.AVX512BW = avx512F && ebx7&(1<<30) != 0
	}
	return f
}
