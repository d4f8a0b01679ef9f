package packet

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestLSATTLRoundTrip: the scope-TTL byte must survive the wire, and every
// truncation must error.
func TestLSATTLRoundTrip(t *testing.T) {
	for _, l := range []*LSA{
		{Origin: 7, Seq: 42, Neighbors: []graph.NodeID{1, 3}, Probs: []uint8{200, 25}, TTL: 2},
		{Origin: 7, Seq: 42, Neighbors: []graph.NodeID{1, 3}, Probs: []uint8{200, 25}, TTL: 255},
	} {
		buf, err := l.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != l.EncodedSize() {
			t.Fatalf("size %d != %d", len(buf), l.EncodedSize())
		}
		got, n, err := DecodeLSA(buf)
		if err != nil || n != len(buf) {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, l) {
			t.Fatalf("%+v != %+v", got, l)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := DecodeLSA(buf[:cut]); err == nil {
				t.Fatalf("short decode at %d succeeded", cut)
			}
		}
	}
}

// TestLSAZeroTTLBytesIdentical is the wire-compatibility contract: a TTL of
// zero (unscoped) encodes to exactly the bytes the pre-TTL format produced,
// so unscoped runs keep their golden digests.
func TestLSAZeroTTLBytesIdentical(t *testing.T) {
	a := &LSA{Origin: 3, Seq: 9, Neighbors: []graph.NodeID{2, 5}, Probs: []uint8{10, 250}}
	b := &LSA{Origin: 3, Seq: 9, Neighbors: []graph.NodeID{2, 5}, Probs: []uint8{10, 250}, TTL: 0}
	ab, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ab, bb) {
		t.Fatalf("zero TTL changed the encoding: %v vs %v", ab, bb)
	}
	if got, _, err := DecodeLSA(ab); err != nil || got.TTL != 0 {
		t.Fatalf("legacy bytes decoded with TTL %d, err %v", got.TTL, err)
	}
}

// TestHeardSetNotOnTheWire: LSA.Heard is simulation-side state. Encode and
// EncodedSize ignore it, DecodeLSA never produces one, and a struct copy —
// how a forwarder decrements the TTL — shares the original's set.
func TestHeardSetNotOnTheWire(t *testing.T) {
	bare := &LSA{Origin: 7, Seq: 41, Neighbors: []graph.NodeID{1, 9}, Probs: []uint8{200, 31}, TTL: 2}
	marked := *bare
	marked.Heard = graph.NewNodeSet(512)
	marked.Heard.Add(300)

	a, err := bare.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marked.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || bare.EncodedSize() != marked.EncodedSize() {
		t.Fatalf("a heard-set changed the wire form: % x (%d) vs % x (%d)", a, bare.EncodedSize(), b, marked.EncodedSize())
	}
	got, _, err := DecodeLSA(b)
	if err != nil || got.Heard != nil || !reflect.DeepEqual(got, bare) {
		t.Fatalf("decoded %+v (err %v), want %+v with no heard-set", got, err, bare)
	}

	fwd := marked
	fwd.TTL--
	if fwd.Heard.Add(5); !marked.Heard.Has(5) || !fwd.Heard.Has(300) {
		t.Fatal("a TTL-decremented copy does not share its parent's heard-set")
	}
}

// TestLSANeighborCap: the TTL flag rides the count byte's bit 6, so 63
// neighbors is the hard cap with or without it.
func TestLSANeighborCap(t *testing.T) {
	mk := func(n int) *LSA {
		l := &LSA{Origin: 1, Seq: 1}
		for i := 0; i < n; i++ {
			l.Neighbors = append(l.Neighbors, graph.NodeID(i+2))
			l.Probs = append(l.Probs, 100)
		}
		return l
	}
	if _, err := mk(63).Encode(nil); err != nil {
		t.Fatalf("63 neighbors rejected: %v", err)
	}
	if _, err := mk(64).Encode(nil); err == nil {
		t.Fatal("64 neighbors accepted: count byte would collide with the TTL flag")
	}
	l := mk(63)
	l.TTL = 9
	buf, err := l.Encode(nil)
	if err != nil {
		t.Fatalf("63 neighbors with a TTL rejected: %v", err)
	}
	got, _, err := DecodeLSA(buf)
	if err != nil || got.TTL != 9 || len(got.Neighbors) != 63 {
		t.Fatalf("full LSA round trip: ttl %d, %d neighbors, err %v", got.TTL, len(got.Neighbors), err)
	}
}

// loadFlaggedLSAs are the bytes the retired load-carrying LSA format
// produced for Origin 7, Seq 42 and three neighbors: load 137, then load 1
// with TTL 255. Bit 7 of the count byte flagged the trailing load byte.
var loadFlaggedLSAs = [][]byte{
	{0, 7, 0, 0, 0, 42, 0x83, 0, 1, 200, 0, 3, 128, 0, 9, 25, 137},
	{0, 7, 0, 0, 0, 42, 0xc3, 0, 1, 200, 0, 3, 128, 0, 9, 25, 1, 255},
}

// TestLSALoadFlagIsMalformed: no encoder sets bit 7 of the count byte now,
// so bytes with it set are refused — read as a count they would promise up
// to 127 neighbors, and a decoded LSA must re-encode.
func TestLSALoadFlagIsMalformed(t *testing.T) {
	for _, b := range append(loadFlaggedLSAs, []byte{0, 7, 0, 0, 0, 42, 0x80}) {
		if l, n, err := DecodeLSA(b); !errors.Is(err, ErrTooMany) || l != nil || n != 0 {
			t.Errorf("DecodeLSA(% x) = %+v, %d, %v; want ErrTooMany", b, l, n, err)
		}
	}
}

// TestOutwardCopyIsNotEncoded: the outward copy is made once, differs from
// its LSA only in TTL, shares the heard-set, and the pointer to it is never
// on the wire — the LSA encodes to the same bytes before and after.
func TestOutwardCopyIsNotEncoded(t *testing.T) {
	l := &LSA{Origin: 7, Seq: 42, Neighbors: []graph.NodeID{1, 3}, Probs: []uint8{200, 25}, TTL: 3, Heard: graph.NewNodeSet(8)}
	before, err := l.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := l.Outward()
	if c == l || l.Outward() != c {
		t.Fatal("Outward did not return one copy, distinct from its LSA")
	}
	if c.TTL != 2 || l.TTL != 3 || c.Origin != l.Origin || c.Seq != l.Seq || &c.Heard[0] != &l.Heard[0] {
		t.Fatalf("outward copy %+v of %+v", *c, *l)
	}
	after, err := l.Encode(nil)
	if err != nil || !reflect.DeepEqual(before, after) {
		t.Fatalf("the outward copy changed the encoding: %v vs %v", before, after)
	}
	cb, err := c.Encode(nil)
	if err != nil || !reflect.DeepEqual(cb[:len(cb)-1], before[:len(before)-1]) || cb[len(cb)-1] != 2 {
		t.Fatalf("outward copy encodes to %v, its LSA to %v", cb, before)
	}
	got, _, err := DecodeLSA(after)
	if err != nil || got.outward != nil {
		t.Fatalf("a decoded LSA carries an outward copy (err %v)", err)
	}
}
