package flow

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

func TestFilePayloadsDeterministic(t *testing.T) {
	f := NewFile(10*100, 100, 7)
	a := f.Payloads()
	b := f.Payloads()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("packet counts %d/%d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("payload %d differs between calls", i)
		}
		if len(a[i]) != 100 {
			t.Fatalf("payload %d has size %d", i, len(a[i]))
		}
	}
	other := NewFile(10*100, 100, 8).Payloads()
	if bytes.Equal(a[0], other[0]) {
		t.Fatal("different seeds produced identical payloads")
	}
}

func TestFileNumPacketsRoundsUp(t *testing.T) {
	if got := NewFile(1501, 1500, 1).NumPackets(); got != 2 {
		t.Fatalf("1501 bytes = %d packets, want 2", got)
	}
	if got := NewFile(1500, 1500, 1).NumPackets(); got != 1 {
		t.Fatalf("1500 bytes = %d packets, want 1", got)
	}
}

func TestResultMetrics(t *testing.T) {
	r := Result{
		Src: 1, Dst: 2,
		PacketsDelivered: 100,
		PacketsTotal:     100,
		Completed:        true,
		Start:            sim.Second,
		End:              3 * sim.Second,
		Transmissions:    250,
		Verified:         true,
	}
	if got := r.Throughput(); got != 50 {
		t.Fatalf("throughput = %v, want 50", got)
	}
	if got := r.TxPerPacket(); got != 2.5 {
		t.Fatalf("tx/pkt = %v", got)
	}
	if r.Duration() != 2*sim.Second {
		t.Fatalf("duration = %v", r.Duration())
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
	var zero Result
	if zero.Throughput() != 0 || zero.TxPerPacket() != 0 || zero.Duration() != 0 {
		t.Fatal("zero result should report zero metrics")
	}
}

func TestOracle(t *testing.T) {
	topo := graph.New(4)
	topo.SetLink(0, 1, 0.9)
	topo.SetLink(1, 2, 0.9)
	topo.SetLink(2, 3, 0.9)
	o := NewOracle(topo, routing.ETXOptions{Threshold: 0.1, AckAware: false})
	if got := o.NextHop(0, 3); got != 1 {
		t.Fatalf("NextHop(0,3) = %v", got)
	}
	if got := o.NextHop(3, 3); got != -1 {
		t.Fatalf("NextHop to self = %v", got)
	}
	path := o.Path(0, 3)
	if len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Fatalf("path = %v", path)
	}
	// Table caching: same pointer on second call.
	if o.Table(3) != o.Table(3) {
		t.Fatal("tables not cached")
	}
}

func TestFileUnalignedTailTruncated(t *testing.T) {
	// 1000 B in 300 B packets: 4 packets, final one carries 100 B. The old
	// behaviour padded it to 300 B, so byte accounting overcounted and
	// delivered-content verification compared against padding.
	f := NewFile(1000, 300, 7)
	if got := f.NumPackets(); got != 4 {
		t.Fatalf("NumPackets = %d, want 4", got)
	}
	if got := f.TailSize(); got != 100 {
		t.Fatalf("TailSize = %d, want 100", got)
	}
	ps := f.Payloads()
	total := 0
	for _, p := range ps {
		total += len(p)
	}
	if total != 1000 {
		t.Fatalf("payloads carry %d bytes, want exactly 1000", total)
	}
	if len(ps[3]) != 100 {
		t.Fatalf("tail payload has %d bytes, want 100", len(ps[3]))
	}
	// Aligned files still produce full-size tails.
	if a := NewFile(900, 300, 7); len(a.Payloads()[2]) != 300 || a.TailSize() != 300 {
		t.Fatal("aligned file must not be truncated")
	}
	// Truncation is a prefix, not a different draw: first packets unchanged.
	long := NewFile(1200, 300, 7).Payloads()
	for i := 0; i < 3; i++ {
		if !VerifyPayload(long[i], ps[i]) {
			t.Fatalf("packet %d differs between aligned and unaligned draws", i)
		}
	}
}

func TestVerifyPayload(t *testing.T) {
	want := []byte{1, 2, 3}
	if !VerifyPayload([]byte{1, 2, 3}, want) {
		t.Fatal("exact match rejected")
	}
	if !VerifyPayload([]byte{1, 2, 3, 0, 0}, want) {
		t.Fatal("padded match rejected")
	}
	if VerifyPayload([]byte{1, 2}, want) {
		t.Fatal("short payload accepted")
	}
	if VerifyPayload([]byte{1, 2, 9}, want) {
		t.Fatal("corrupt payload accepted")
	}
}

// perPacketRead is the parent's Payloads: one math/rand Read per packet.
func perPacketRead(f File) [][]byte {
	rng := rand.New(rand.NewSource(f.Seed))
	out := make([][]byte, f.NumPackets())
	for i := range out {
		out[i] = make([]byte, f.PktSize)
		rng.Read(out[i])
	}
	if n := len(out); n > 0 {
		out[n-1] = out[n-1][:f.TailSize()]
	}
	return out
}

// TestPayloadsMatchMathRand pins the generated bytes to math/rand's own
// Read, packet by packet: a drift in either the fill or the library fails.
func TestPayloadsMatchMathRand(t *testing.T) {
	cases := []struct {
		name string
		f    File
	}{
		{"aligned", NewFile(6*1500, 1500, 11)},
		{"unaligned", NewFile(65536, 1500, 12)},
		{"one-packet", NewFile(1500, 1500, 13)},
		{"one-short-packet", NewFile(5, 1500, 14)},
		{"seven-multiple", NewFile(7*64*3, 7*64, 15)},
		{"tail-of-eight", NewFile(1500+8, 1500, 16)},
		{"empty", NewFile(0, 1500, 17)},
		{"literal", File{Seed: 18, Bytes: 4000, PktSize: 1500}},
	}
	for _, tc := range cases {
		for call := 0; call < 2; call++ {
			got, want := tc.f.Payloads(), perPacketRead(tc.f)
			if len(got) != len(want) {
				t.Fatalf("%s: %d packets, want %d", tc.name, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s call %d: packet %d differs from rand.Read", tc.name, call, i)
				}
			}
		}
	}
}

// TestPayloadsSharedAndIsolated pins who owns what: the bytes are shared,
// the outer slice is each caller's, and a view cannot grow into the next.
func TestPayloadsSharedAndIsolated(t *testing.T) {
	f := NewFile(4000, 1500, 21)
	a, b := f.Payloads(), f.Payloads()
	for i := range a {
		if &a[i][0] != &b[i][0] {
			t.Fatalf("packet %d: two calls do not share storage", i)
		}
		if cap(a[i]) != len(a[i]) {
			t.Fatalf("packet %d: cap %d beyond len %d", i, cap(a[i]), len(a[i]))
		}
	}
	// What core.padForCoding does to the source's copy must not reach the
	// sink's.
	last := len(a) - 1
	a[last] = make([]byte, f.PktSize)
	if len(b[last]) != f.TailSize() || !bytes.Equal(b[last], perPacketRead(f)[last]) {
		t.Fatal("replacing an element of one call's outer slice changed the other's")
	}
	next := append([]byte(nil), b[1]...)
	grown := append(b[0], 0xEE)
	if &grown[0] == &b[0][0] || !bytes.Equal(b[1], next) {
		t.Fatal("append to a packet view wrote into the next packet")
	}
	// A copy of the File shares the content; a literal generates its own.
	g := f
	if c := g.Payloads(); &c[0][0] != &b[0][0] {
		t.Fatal("a copied File regenerated its content")
	}
	lit := File{Seed: 21, Bytes: 4000, PktSize: 1500}
	if c := lit.Payloads(); &c[0][0] == &b[0][0] || !bytes.Equal(c[0], b[0]) {
		t.Fatal("a literal File must generate equal bytes of its own")
	}
	if n := testing.AllocsPerRun(20, func() { f.Payloads() }); n > 1 {
		t.Fatalf("a repeated Payloads call allocates %v objects, want at most the outer slice", n)
	}
}

// TestPayloadsConcurrentFirstUse has parallel workers race for the first
// generation of one File's content (run under -race in CI).
func TestPayloadsConcurrentFirstUse(t *testing.T) {
	f := NewFile(65536, 1500, 31)
	want := perPacketRead(f)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(f File) {
			defer wg.Done()
			got := f.Payloads()
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("packet %d differs under concurrent first use", i)
					return
				}
			}
		}(f)
	}
	wg.Wait()
}
