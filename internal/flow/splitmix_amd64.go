package flow

import "repro/internal/cpufeat"

// vectorFile selects the AVX-512 bodies of fill and matches. It holds where
// the CPU has AVX-512F/DQ with the ZMM state enabled; the tests switch it
// off to run the scalar loop, their oracle, on the same host.
var vectorFile = cpufeat.X86.AVX512DQ

// splitmixFill writes blocks·64 bytes of the stream started at state to
// dst; splitmixMatch reports whether blocks·64 bytes at src are exactly
// them (splitmix_amd64.s). blocks > 0.
//
//go:noescape
func splitmixFill(state uint64, dst *byte, blocks int)

//go:noescape
func splitmixMatch(state uint64, src *byte, blocks int) bool

// fill writes the packet whose key is state into p (fillWords), whole
// 64-byte blocks eight words at a time. A shorter rest is one more block
// generated on the stack, of which p takes the head.
func fill(state uint64, p []byte) {
	if !vectorFile {
		fillWords(state, p)
		return
	}
	if b := len(p) / 64; b > 0 {
		splitmixFill(state, &p[0], b)
		p = p[b*64:]
		state += uint64(b) * 8 * golden
	}
	if len(p) > 0 {
		var blk [64]byte
		splitmixFill(state, &blk[0], 1)
		copy(p, blk[:])
	}
}

// matches reports whether p is exactly the packet whose key is state
// (matchWords), comparing whole 64-byte blocks in registers and the rest
// with one more block regenerated on the stack.
func matches(state uint64, p []byte) bool {
	if !vectorFile {
		return matchWords(state, p)
	}
	if b := len(p) / 64; b > 0 {
		if !splitmixMatch(state, &p[0], b) {
			return false
		}
		p = p[b*64:]
		state += uint64(b) * 8 * golden
	}
	if len(p) > 0 {
		var blk [64]byte
		splitmixFill(state, &blk[0], 1)
		return string(p) == string(blk[:len(p)])
	}
	return true
}
