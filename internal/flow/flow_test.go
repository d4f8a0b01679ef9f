package flow

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

func TestFilePayloadsDeterministic(t *testing.T) {
	f := NewFile(10*100, 100, 7)
	a := f.Packets(0, 10)
	b := f.Packets(0, 10)
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
	other := NewFile(10*100, 100, 8).Packets(0, 1)
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
	ps := f.Packets(0, f.NumPackets())
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
	if a := NewFile(900, 300, 7); len(a.Packets(2, 3)[0]) != 300 || a.TailSize() != 300 {
		t.Fatal("aligned file must not be truncated")
	}
	// Truncation is a prefix, not a different draw: first packets unchanged.
	long := NewFile(1200, 300, 7).Packets(0, 4)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(long[i], ps[i]) {
			t.Fatalf("packet %d differs between aligned and unaligned draws", i)
		}
	}
}

// TestPacketsKnownAnswer pins the generator to its definition: word j of
// packet i is SplitMix64's finalizer over key(Seed, i) + (j+1)·golden,
// little-endian, and a short tail takes the low bytes of its word. A drift
// in the bytes would not move any simulated event, so only this catches it.
func TestPacketsKnownAnswer(t *testing.T) {
	f := NewFile(2*16+13, 16, 42) // two 16 B packets and a 13 B tail
	want := map[int]string{
		0: "f3136b26b71b599d9095bd280e553a73",
		2: "1da3f56c873b7266a1a3eeb982",
	}
	ps := f.Packets(0, 3)
	for i, w := range want {
		if got := hex.EncodeToString(ps[i]); got != w {
			t.Errorf("packet %d = %s, want %s", i, got, w)
		}
	}
}

// TestFillPacketsMatchesAgree: the three ways to reach a packet's bytes
// agree on every packet of files with and without a tail, and a range
// starting mid-file is the same bytes as the whole file's views.
func TestFillPacketsMatchesAgree(t *testing.T) {
	for _, f := range []File{
		NewFile(6*1500, 1500, 11),
		NewFile(65536, 1500, 12),
		NewFile(5, 1500, 13),
		NewFile(7*64*3+3, 7*64, -15),
	} {
		n := f.NumPackets()
		all := f.Packets(0, n)
		mid := f.Packets(n/2, n)
		buf := make([]byte, f.PktSize+9)
		for i, p := range all {
			if len(p) != f.PacketSize(i) || cap(p) != len(p) {
				t.Fatalf("%+v packet %d: len %d cap %d, want both %d", f, i, len(p), cap(p), f.PacketSize(i))
			}
			if i >= n/2 && !bytes.Equal(mid[i-n/2], p) {
				t.Fatalf("%+v packet %d: Packets(%d, %d) differs from Packets(0, %d)", f, i, n/2, n, n)
			}
			for j := range buf {
				buf[j] = 0xEE
			}
			f.Fill(i, buf)
			if !bytes.Equal(buf[:len(p)], p) || !bytes.Equal(buf[len(p):], make([]byte, len(buf)-len(p))) {
				t.Fatalf("%+v packet %d: Fill is not the packet then zeroes", f, i)
			}
			if !f.Matches(i, p) {
				t.Fatalf("%+v packet %d: Matches rejects the packet", f, i)
			}
		}
	}
}

// TestMatchesRejectsFlips: one flipped bit in the first byte, a middle byte
// or the last byte (inside the partial word of a tail) fails the match.
func TestMatchesRejectsFlips(t *testing.T) {
	f := NewFile(1500+13, 1500, 21)
	for i := 0; i < f.NumPackets(); i++ {
		p := f.Packets(i, i+1)[0]
		for _, at := range []int{0, len(p) / 2, len(p) - 1} {
			p[at] ^= 0x10
			if f.Matches(i, p) {
				t.Errorf("packet %d (%d B): a flip at byte %d matches", i, len(p), at)
			}
			p[at] ^= 0x10
		}
		if !f.Matches(i, p) {
			t.Fatalf("packet %d: restored bytes do not match", i)
		}
	}
}

// TestMatchesRejectsLengthAndIndex: a packet with its coding pad, a
// truncated one, another packet's bytes, and any index outside the file all
// fail; Fill refuses an index outside the file and a short buffer.
func TestMatchesRejectsLengthAndIndex(t *testing.T) {
	f := NewFile(3*100+40, 100, 31)
	ps := f.Packets(0, 4)
	padded := append(append([]byte(nil), ps[3]...), make([]byte, 60)...)
	for _, tc := range []struct {
		name string
		i    int
		got  []byte
	}{
		{"padded tail", 3, padded},
		{"truncated", 1, ps[1][:99]},
		{"a longer file's tail", 3, NewFile(400, 100, 31).Packets(3, 4)[0]},
		{"empty", 0, nil},
		{"other packet", 1, ps[0]},
		{"index -1", -1, ps[0]},
		{"index past the end", 4, ps[3]},
	} {
		if f.Matches(tc.i, tc.got) {
			t.Errorf("%s: matches", tc.name)
		}
	}
	if NewFile(340, 100, 32).Matches(0, ps[0]) {
		t.Error("another seed's packet matches")
	}
	for _, tc := range []struct {
		i   int
		dst []byte
	}{{4, make([]byte, 100)}, {0, make([]byte, 99, 100)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fill(%d) into %d B did not panic", tc.i, len(tc.dst))
				}
			}()
			f.Fill(tc.i, tc.dst)
		}()
	}
}

// TestPacketsRangeChecked: a range outside the file panics, an empty one
// is empty.
func TestPacketsRangeChecked(t *testing.T) {
	f := NewFile(1000, 300, 7)
	if got := f.Packets(2, 2); len(got) != 0 {
		t.Fatalf("empty range gave %d packets", len(got))
	}
	for _, r := range [][2]int{{-1, 1}, {2, 1}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Packets(%d, %d) did not panic", r[0], r[1])
				}
			}()
			f.Packets(r[0], r[1])
		}()
	}
}

// TestFillAndMatchesAllocateNothing: regenerating a packet, to code it or
// to check it, allocates nothing.
func TestFillAndMatchesAllocateNothing(t *testing.T) {
	f := NewFile(64*1500+700, 1500, 41)
	buf := make([]byte, 1500)
	p := f.Packets(64, 65)[0]
	if n := testing.AllocsPerRun(50, func() { f.Fill(64, buf) }); n != 0 {
		t.Errorf("Fill allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if !f.Matches(64, p) {
			t.Fatal("tail does not match")
		}
	}); n != 0 {
		t.Errorf("Matches allocates %v/op", n)
	}
}

// TestVectorFillMatchesWords holds fill and matches to the word loops that
// define a packet's bytes, on each path this host runs — the word loops
// themselves and, where the CPU has them, the vector bodies: every length
// 0…200 and 1500, over random keys, into a buffer whose guard bytes must
// survive. matches must accept the packet and reject one flipped byte in
// its head, its middle and its last byte, and matchWords must agree.
func TestVectorFillMatchesWords(t *testing.T) {
	paths := []bool{false}
	if vectorFile {
		paths = append(paths, true)
	}
	t.Logf("vector bodies run: %v", vectorFile)
	defer func(v bool) { vectorFile = v }(vectorFile)
	const guard = 64
	rng := rand.New(rand.NewSource(51))
	lengths := make([]int, 0, 202)
	for n := 0; n <= 200; n++ {
		lengths = append(lengths, n)
	}
	for _, vectorFile = range paths {
		for _, n := range append(lengths, 1500) {
			for rep := 0; rep < 4; rep++ {
				key := rng.Uint64()
				want := make([]byte, n)
				fillWords(key, want)
				buf := bytes.Repeat([]byte{0xc3}, guard+n+guard)
				got := buf[guard : guard+n : guard+n]
				fill(key, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("vector=%v n=%d key=%#x: fill differs from fillWords\n got %x\nwant %x", vectorFile, n, key, got, want)
				}
				for i, g := range buf {
					if (i < guard || i >= guard+n) && g != 0xc3 {
						t.Fatalf("vector=%v n=%d: fill wrote outside p at %d", vectorFile, n, i-guard)
					}
				}
				if !matches(key, got) || !matchWords(key, got) {
					t.Fatalf("vector=%v n=%d key=%#x: the packet does not match itself", vectorFile, n, key)
				}
				if n == 0 {
					continue
				}
				for _, at := range []int{0, n / 2, n - 1} {
					got[at] ^= 1 << rng.Intn(8)
					if matches(key, got) || matchWords(key, got) {
						t.Fatalf("vector=%v n=%d key=%#x: a flip at byte %d matches", vectorFile, n, key, at)
					}
					copy(got, want)
				}
			}
		}
	}
}

// TestMatchesRejectsFlipsEverywhere: through File.Matches, one flipped byte
// in the head, the body or the tail of packets of many lengths, and a
// length one short or one long, all fail; the packet itself matches.
func TestMatchesRejectsFlipsEverywhere(t *testing.T) {
	for _, size := range []int{1, 7, 8, 63, 64, 65, 127, 128, 129, 1499, 1500} {
		f := NewFile(size, size, int64(size))
		p := f.Packets(0, 1)[0]
		if !f.Matches(0, p) {
			t.Fatalf("%d B: the packet does not match", size)
		}
		for _, at := range []int{0, size / 2, size - 1} {
			p[at] ^= 0x80
			if f.Matches(0, p) {
				t.Errorf("%d B: a flip at byte %d matches", size, at)
			}
			p[at] ^= 0x80
		}
		if f.Matches(0, p[:size-1]) || f.Matches(0, append(p[:size:size], 0)) {
			t.Errorf("%d B: a wrong length matches", size)
		}
	}
}

// TestCountTransmissions: a result takes its own flow's count from the
// simulator's per-flow tally, not another flow's or the control bucket.
func TestCountTransmissions(t *testing.T) {
	c := sim.Counters{TxByFlow: map[uint32]int64{0: 9, 1: 40, 2: 7}}
	var r Result
	r.CountTransmissions(&c, 2)
	if r.Transmissions != 7 {
		t.Fatalf("flow 2: %d transmissions, want 7", r.Transmissions)
	}
	r.CountTransmissions(&c, 3)
	if r.Transmissions != 0 {
		t.Fatalf("flow 3 sent nothing: %d transmissions", r.Transmissions)
	}
}

// TestResultSinkRules drives the three sink rules the way each protocol's
// sink calls them: at every arrival Arrive, then Deliver with the count so
// far, then Check. Srcr delivers one packet at a time, MORE a decoded batch
// at a time (arrivals before a decode deliver nothing), and ExOR reports a
// running count that can repeat or read lower. Start is stamped once, End
// moves only when the count grows, and a mismatch leaves Verified false for
// good, whichever the pattern.
func TestResultSinkRules(t *testing.T) {
	type step struct {
		at    sim.Time
		total int
	}
	for _, c := range []struct {
		name          string
		steps         []step
		wantEnd       sim.Time
		wantDelivered int
	}{
		{"srcr, one packet at a time", []step{{10, 1}, {20, 2}, {30, 3}, {40, 3}}, 30, 3},
		{"more, a batch at a time", []step{{10, 0}, {20, 0}, {30, 4}, {40, 4}, {50, 8}, {60, 8}}, 50, 8},
		{"exor, a running count", []step{{10, 2}, {20, 5}, {30, 4}, {40, 5}}, 20, 5},
	} {
		for _, bad := range []int{-1, 1} { // the step whose payload mismatches, -1 none
			r := Result{Verified: true}
			for i, s := range c.steps {
				r.Arrive(3, s.at)
				r.Deliver(s.total, s.at)
				r.Check(i != bad)
			}
			want := Result{Src: 3, Start: 10, End: c.wantEnd, PacketsDelivered: c.wantDelivered, Verified: bad < 0}
			if r != want {
				t.Errorf("%s, mismatch at step %d: got src %d start %v end %v delivered %d verified %v, want src 3 start 10ns end %v delivered %d verified %v",
					c.name, bad, r.Src, r.Start, r.End, r.PacketsDelivered, r.Verified, want.End, want.PacketsDelivered, want.Verified)
			}
		}
	}
}

// BenchmarkFill1500 and BenchmarkMatches1500 cost one 1500-byte packet's
// generation and verification, the source's and the sink's share of it.
func BenchmarkFill1500(b *testing.B) {
	f := NewFile(1500*64, 1500, 61)
	buf := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		f.Fill(i&63, buf)
	}
}

func BenchmarkMatches1500(b *testing.B) {
	f := NewFile(1500, 1500, 62)
	p := f.Packets(0, 1)[0]
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		if !f.Matches(0, p) {
			b.Fatal("no match")
		}
	}
}
