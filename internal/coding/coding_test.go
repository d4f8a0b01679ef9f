package coding

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomNatives(rng *rand.Rand, k, size int) [][]byte {
	natives := make([][]byte, k)
	for i := range natives {
		natives[i] = make([]byte, size)
		rng.Read(natives[i])
	}
	return natives
}

func TestSourceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSource(nil, rng); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewSource([][]byte{{}}, rng); err == nil {
		t.Error("zero-size payload accepted")
	}
	if _, err := NewSource([][]byte{{1, 2}, {3}}, rng); err == nil {
		t.Error("ragged payloads accepted")
	}
}

func TestSourceResetMatchesNewSource(t *testing.T) {
	// A source reloaded with the next batch codes exactly what a new source
	// over that batch would, on the same rng; Reset refuses another shape.
	const k, size = 6, 40
	gen := rand.New(rand.NewSource(5))
	first, second := randomNatives(gen, k, size), randomNatives(gen, k, size)
	reused, _ := NewSource(first, rand.New(rand.NewSource(6)))
	if err := reused.Reset(second); err != nil {
		t.Fatal(err)
	}
	fresh, _ := NewSource(second, rand.New(rand.NewSource(6)))
	for i := 0; i < 20; i++ {
		a, b := reused.Next(), fresh.Next()
		if !bytes.Equal(a.Vector, b.Vector) || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("packet %d: reset source and new source differ", i)
		}
	}
	if err := reused.Reset(second[:k-1]); err == nil {
		t.Error("Reset accepted a batch of another K")
	}
	if err := reused.Reset(randomNatives(gen, k, size+1)); err == nil {
		t.Error("Reset accepted payloads of another size")
	}
}

func TestSourceNextNeverZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src, err := NewSource(randomNatives(rng, 4, 16), rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if src.Next().IsZero() {
			t.Fatal("source produced all-zero code vector")
		}
	}
}

func TestSourcePacketConsistent(t *testing.T) {
	// The coded payload must equal the code vector applied to the natives.
	rng := rand.New(rand.NewSource(3))
	k, size := 8, 64
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	for iter := 0; iter < 50; iter++ {
		p := src.Next()
		for off := 0; off < size; off++ {
			col := make([]byte, k)
			for i := 0; i < k; i++ {
				col[i] = natives[i][off]
			}
			var want byte
			for i := 0; i < k; i++ {
				want ^= mulRef(p.Vector[i], col[i])
			}
			if p.Payload[off] != want {
				t.Fatalf("payload byte %d inconsistent with code vector", off)
			}
		}
	}
}

// mulRef is an independent GF(2^8) multiply for cross-checking.
func mulRef(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a&0x80 != 0
		a <<= 1
		if hi {
			a ^= 0x1D
		}
		b >>= 1
	}
	return p
}

func TestBufferRankGrowsToK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k, size := 16, 32
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	buf := NewBuffer(k, size)
	adds := 0
	for !buf.Full() {
		p := src.Next()
		innovative := buf.Innovative(p.Vector)
		got := buf.Add(p)
		if got != innovative {
			t.Fatal("Innovative() disagreed with Add()")
		}
		adds++
		if adds > 10*k {
			t.Fatal("buffer never filled; coding broken")
		}
	}
	if buf.Rank() != k {
		t.Fatalf("rank %d != k %d", buf.Rank(), k)
	}
	// Random coded packets are overwhelmingly innovative: over GF(256) the
	// chance a random packet is non-innovative while rank < K is ≈ 1/256 per
	// missing dimension, so K packets should very nearly suffice.
	if adds > k+6 {
		t.Fatalf("needed %d packets to fill rank %d; expected nearly exactly k", adds, k)
	}
}

func TestBufferRejectsDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k, size := 4, 8
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	buf := NewBuffer(k, size)
	p := src.Next()
	dup, scaled := p.Clone(), p.Clone()
	if !buf.Add(p) {
		t.Fatal("first packet not innovative")
	}
	if buf.Add(dup) {
		t.Fatal("identical packet admitted twice")
	}
	// A scaled copy is also dependent.
	for i := range scaled.Vector {
		scaled.Vector[i] = mulRef(scaled.Vector[i], 7)
	}
	for i := range scaled.Payload {
		scaled.Payload[i] = mulRef(scaled.Payload[i], 7)
	}
	if buf.Add(scaled) {
		t.Fatal("scaled duplicate admitted")
	}
}

func TestBufferRejectsWrongSizes(t *testing.T) {
	buf := NewBuffer(4, 8)
	if buf.Add(&Packet{Vector: make([]byte, 3), Payload: make([]byte, 8)}) {
		t.Error("wrong vector length admitted")
	}
	if buf.Add(&Packet{Vector: []byte{1, 0, 0, 0}, Payload: make([]byte, 9)}) {
		t.Error("wrong payload length admitted")
	}
	if buf.Innovative(make([]byte, 3)) {
		t.Error("wrong-length vector reported innovative")
	}
}

func TestBufferReset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k, size := 4, 8
	src, _ := NewSource(randomNatives(rng, k, size), rng)
	buf := NewBuffer(k, size)
	for i := 0; i < k; i++ {
		buf.Add(src.Next())
	}
	buf.Reset()
	if buf.Rank() != 0 || slices.ContainsFunc(buf.rows, func(r *Packet) bool { return r != nil }) {
		t.Fatal("Reset did not clear buffer")
	}
	if buf.Recode(rng) != nil {
		t.Fatal("Recode on empty buffer returned a packet")
	}
}

func TestRecodeStaysInSpan(t *testing.T) {
	// A recoded packet must never be innovative with respect to the buffer
	// it came from, and must decode correctly downstream.
	rng := rand.New(rand.NewSource(7))
	k, size := 8, 24
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	buf := NewBuffer(k, size)
	for i := 0; i < 5; i++ { // partial rank
		buf.Add(src.Next())
	}
	for i := 0; i < 100; i++ {
		p := buf.Recode(rng)
		if p == nil {
			t.Fatal("Recode returned nil on non-empty buffer")
		}
		if buf.Innovative(p.Vector) {
			t.Fatal("recoded packet escaped the span of its buffer")
		}
		if p.IsZero() {
			t.Fatal("recoded packet is all-zero")
		}
	}
}

func TestEndToEndDecode(t *testing.T) {
	// src -> forwarder -> destination, all over recoded packets.
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{1, 2, 8, 32} {
		size := 100
		natives := randomNatives(rng, k, size)
		src, _ := NewSource(natives, rng)
		fwd := NewBuffer(k, size)
		dec := NewDecoder(k, size)
		guard := 0
		for !dec.Complete() {
			guard++
			if guard > 50*k+50 {
				t.Fatalf("k=%d: decode never completed", k)
			}
			// Source transmits; forwarder hears it with 50% probability.
			p := src.Next()
			if rng.Intn(2) == 0 {
				fwd.Add(p.Clone())
			}
			// Forwarder transmits a recoded packet; destination hears it
			// with 70% probability.
			if q := fwd.Recode(rng); q != nil && rng.Intn(10) < 7 {
				dec.Add(q)
			}
		}
		out, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for i := range natives {
			if !bytes.Equal(out[i], natives[i]) {
				t.Fatalf("k=%d: native %d corrupted by coding pipeline", k, i)
			}
		}
		// Idempotent.
		out2, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for i := range natives {
			if !bytes.Equal(out2[i], natives[i]) {
				t.Fatalf("k=%d: second Decode disagreed", k)
			}
		}
	}
}

func TestDecodeIncompleteErrors(t *testing.T) {
	dec := NewDecoder(4, 8)
	if _, err := dec.Decode(); err == nil {
		t.Fatal("Decode on empty decoder did not error")
	}
}

func TestPreCoder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k, size := 8, 32
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	buf := NewBuffer(k, size)
	pc := NewPreCoder(buf, rng)

	if pc.Take() != nil {
		t.Fatal("Take on empty buffer returned a packet")
	}
	if pc.Ready() {
		t.Fatal("Ready on empty precoder")
	}

	buf.Add(src.Next())
	pc.Update() // first Update acts as Refresh
	if !pc.Ready() {
		t.Fatal("not ready after Update")
	}
	out := pc.Take()
	if out == nil || buf.Innovative(out.Vector) {
		t.Fatal("precoded packet invalid")
	}
	// After Take, the next packet is already prepared.
	if !pc.Ready() {
		t.Fatal("Take did not refresh")
	}

	// Updates fold new arrivals in: the precoded packet must stay within the
	// buffer's span and must (almost surely) involve the new packet.
	buf.Add(src.Next())
	pc.Update()
	out = pc.Take()
	if buf.Innovative(out.Vector) {
		t.Fatal("updated precoded packet escaped span")
	}

	buf.Reset()
	if pc.Ready() {
		t.Fatal("the buffer's Reset did not clear the prepared packet")
	}
}

func TestPreCoderIncludesLatestArrival(t *testing.T) {
	// §3.2.3(c): the transmitted packet contains information from all
	// packets known to the node, including the most recent arrival. With
	// rank 2, a packet that ignores the latest arrival lies in a 1-dim
	// subspace; folding in the update must (w.h.p.) leave it outside.
	rng := rand.New(rand.NewSource(10))
	k, size := 4, 8
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)

	buf := NewBuffer(k, size)
	pc := NewPreCoder(buf, rng)
	p1 := src.Next()
	buf.Add(p1.Clone())
	pc.Refresh()

	// Old span: just p1.
	oldSpan := NewBuffer(k, size)
	oldSpan.Add(p1.Clone())

	p2 := src.Next()
	buf.Add(p2.Clone())
	pc.Update()

	involved := 0
	for i := 0; i < 20; i++ {
		out := pc.Take()
		if oldSpan.Innovative(out.Vector) {
			involved++
		}
		pc.Update() // keep folding so each Take still reflects p2
	}
	if involved == 0 {
		t.Fatal("precoded packets never reflected the latest arrival")
	}
}

func TestQuickDecodeRoundTrip(t *testing.T) {
	// Property: for random batches, feeding enough random coded packets
	// through a random chain of recoders always reproduces the natives.
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64, kRaw, sizeRaw uint8) bool {
		k := int(kRaw)%12 + 1
		size := int(sizeRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		natives := randomNatives(rng, k, size)
		src, err := NewSource(natives, rng)
		if err != nil {
			return false
		}
		dec := NewDecoder(k, size)
		for i := 0; i < 4*k+16 && !dec.Complete(); i++ {
			dec.Add(src.Next())
		}
		if !dec.Complete() {
			return false
		}
		out, err := dec.Decode()
		if err != nil {
			return false
		}
		for i := range natives {
			if !bytes.Equal(out[i], natives[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRankNeverExceedsK(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, size := 6, 10
		src, _ := NewSource(randomNatives(rng, k, size), rng)
		buf := NewBuffer(k, size)
		for i := 0; i < 4*k; i++ {
			buf.Add(src.Next())
			if buf.Rank() > k {
				return false
			}
		}
		return buf.Rank() == k
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRowsEchelonInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k, size := 10, 20
	src, _ := NewSource(randomNatives(rng, k, size), rng)
	buf := NewBuffer(k, size)
	for i := 0; i < 2*k; i++ {
		buf.Add(src.Next())
		// Invariant: row i (if present) has leading 1 at index i and zeros
		// before it.
		for slot := 0; slot < k; slot++ {
			if buf.rows[slot] == nil {
				continue
			}
			vec := buf.row(slot)[:k]
			for j := 0; j < slot; j++ {
				if vec[j] != 0 {
					t.Fatalf("row %d has nonzero at %d", slot, j)
				}
			}
			if vec[slot] != 1 {
				t.Fatalf("row %d pivot not normalized: %d", slot, vec[slot])
			}
		}
	}
}

func TestPacketCloneIndependent(t *testing.T) {
	p := &Packet{Vector: []byte{1, 2}, Payload: []byte{3, 4}}
	q := p.Clone()
	q.Vector[0] = 9
	q.Payload[0] = 9
	if p.Vector[0] != 1 || p.Payload[0] != 3 {
		t.Fatal("Clone aliases original")
	}
}
