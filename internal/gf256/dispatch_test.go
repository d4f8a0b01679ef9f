package gf256

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestSetKernelWhileSliceOpsRun is the dispatch pointer's concurrency
// contract: experiment workers multiply on whatever arm is active while
// another goroutine switches it (`-gf256`, tests), and since every arm is
// byte-identical the products never change. Run under -race in CI.
func TestSetKernelWhileSliceOpsRun(t *testing.T) {
	restoreActive(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			src := make([]byte, 1500)
			base := make([]byte, 1500)
			rng.Read(src)
			rng.Read(base)
			want := append([]byte(nil), base...)
			mulAddSliceGeneric(want, src, 0x53)
			got := make([]byte, 1500)
			for {
				select {
				case <-stop:
					return
				default:
				}
				copy(got, base)
				MulAddSlice(got, src, 0x53)
				if !bytes.Equal(got, want) {
					t.Errorf("MulAddSlice diverged with %s active", ActiveKernel())
					return
				}
			}
		}(int64(w))
	}
	for i := 0; i < 200; i++ {
		for _, name := range AvailableKernels() {
			if err := SetKernel(name); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestSetKernelSelection(t *testing.T) {
	restoreActive(t)
	if err := SetKernel(KernelReference); err != nil {
		t.Fatal(err)
	}
	if err := SetKernel("no-such-arm"); err == nil {
		t.Fatal("SetKernel accepted an unknown name")
	}
	if got := ActiveKernel(); got != KernelReference {
		t.Fatalf("a rejected SetKernel changed the selection to %s", got)
	}
	if got := NewKernel().Name(); got != KernelReference {
		t.Fatalf("NewKernel built %s with reference active", got)
	}
	if err := SetKernel(KernelAuto); err != nil {
		t.Fatal(err)
	}
	if got, want := ActiveKernel(), AvailableKernels()[0]; got != want {
		t.Fatalf("auto selected %s, want %s", got, want)
	}
}
