package coding

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReferenceDecodeMatchesProgressive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%16 + 1
		size := 64
		rng := rand.New(rand.NewSource(seed))
		natives := randomNatives(rng, k, size)
		src, _ := NewSource(natives, rng)

		var pkts []*Packet
		dec := NewDecoder(k, size)
		for !dec.Complete() {
			p := src.Next()
			pkts = append(pkts, p.Clone())
			dec.Add(p)
			if len(pkts) > 5*k+10 {
				return false
			}
		}
		progressive, err := dec.Decode()
		if err != nil {
			return false
		}
		reference, err := ReferenceDecode(k, pkts)
		if err != nil {
			return false
		}
		for i := range natives {
			if !bytes.Equal(progressive[i], natives[i]) {
				return false
			}
			if !bytes.Equal(reference[i], natives[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReferenceDecodeRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	natives := randomNatives(rng, 4, 8)
	src, _ := NewSource(natives, rng)
	p := src.Next()
	// Two dependent packets only.
	dup := p.Clone()
	if _, err := ReferenceDecode(4, []*Packet{p, dup}); err == nil {
		t.Fatal("rank-deficient decode succeeded")
	}
	if _, err := ReferenceDecode(4, nil); err == nil {
		t.Fatal("empty decode succeeded")
	}
	bad := src.Next()
	bad.Vector = bad.Vector[:2]
	if _, err := ReferenceDecode(4, []*Packet{bad}); err == nil {
		t.Fatal("malformed packet accepted")
	}
}

func TestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	natives := randomNatives(rng, 6, 10)
	src, _ := NewSource(natives, rng)
	var vectors [][]byte
	for i := 0; i < 3; i++ {
		vectors = append(vectors, src.Next().Vector)
	}
	// Random vectors over GF(256) are independent w.h.p.
	if got := Rank(6, vectors); got != 3 {
		t.Fatalf("rank = %d, want 3", got)
	}
	// Adding a linear combination of existing ones must not raise rank...
	sum := make([]byte, 6)
	copy(sum, vectors[0])
	for i := range sum {
		sum[i] ^= vectors[1][i]
	}
	vectors = append(vectors, sum)
	if got := Rank(6, vectors); got != 3 {
		t.Fatalf("rank after dependent vector = %d, want 3", got)
	}
	// ...and malformed vectors are skipped.
	vectors = append(vectors, []byte{1})
	if got := Rank(6, vectors); got != 3 {
		t.Fatalf("rank after malformed vector = %d", got)
	}
}

func BenchmarkProgressiveDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	k, size := 32, 1500
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	pkts := make([]*Packet, 40)
	for i := range pkts {
		pkts[i] = src.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(k, size)
		for j := 0; !dec.Complete(); j++ {
			dec.Add(pkts[j].Clone())
		}
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	k, size := 32, 1500
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	pkts := make([]*Packet, k+4)
	for i := range pkts {
		pkts[i] = src.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceDecode(k, pkts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	k, size := 32, 1500
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	buf := NewBuffer(k, size)
	for !buf.Full() {
		buf.Add(src.Next())
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Recode(rng)
	}
}

func BenchmarkPreCoderUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	k, size := 32, 1500
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	buf := NewBuffer(k, size)
	pc := NewPreCoder(buf, rng)
	for !buf.Full() {
		buf.Add(src.Next())
	}
	pc.Refresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Update()
	}
}
