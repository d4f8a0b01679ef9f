//go:build !amd64

package gf256

// Non-amd64 builds carry no accelerated kernels: dispatch offers only the
// portable SWAR form and the byte-wise reference.

func archArms() []*arm { return nil }

func newArchImpl(a *arm) kernelImpl {
	panic("gf256: no accelerated kernel " + a.name + " on this architecture")
}
