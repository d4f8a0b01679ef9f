package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestMOREHeaderRoundTrip(t *testing.T) {
	h := &MOREHeader{
		Type:       TypeData,
		FlowID:     42,
		SrcHash:    NodeHash(0),
		DstHash:    NodeHash(19),
		BatchID:    7,
		CodeVector: []byte{1, 2, 3, 0, 255},
		Forwarders: []Forwarder{
			{Node: 3, Credit: CreditToWire(1.5)},
			{Node: 9, Credit: CreditToWire(0.25)},
		},
	}
	buf, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != h.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), h.EncodedSize())
	}
	got, n, err := DecodeMOREHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.Type != h.Type || got.FlowID != h.FlowID || got.SrcHash != h.SrcHash ||
		got.DstHash != h.DstHash || got.BatchID != h.BatchID {
		t.Fatalf("fixed fields mismatch: %+v", got)
	}
	if !bytes.Equal(got.CodeVector, h.CodeVector) {
		t.Fatalf("code vector %v != %v", got.CodeVector, h.CodeVector)
	}
	ResolveForwarders(got.Forwarders, []graph.NodeID{1, 3, 9, 12})
	if got.Forwarders[0].Node != 3 || got.Forwarders[1].Node != 9 {
		t.Fatalf("forwarder resolution failed: %+v", got.Forwarders)
	}
	if CreditFromWire(got.Forwarders[0].Credit) != 1.5 {
		t.Fatalf("credit round trip: %v", CreditFromWire(got.Forwarders[0].Credit))
	}
}

func TestMOREHeaderOverheadBound(t *testing.T) {
	// §4.6(c): with K=32 and the 10-forwarder bound the header is bounded
	// by 70 bytes, under 5% of a 1500 B packet.
	h := &MOREHeader{
		Type:       TypeData,
		CodeVector: make([]byte, 32),
		Forwarders: make([]Forwarder, MaxForwarders),
	}
	size := h.EncodedSize()
	if size > 70 {
		t.Fatalf("MORE header %d bytes with K=32 and 10 forwarders, want ≤ 70", size)
	}
	if float64(size)/1500 > 0.05 {
		t.Fatalf("header overhead %.2f%% exceeds 5%%", 100*float64(size)/1500)
	}
}

func TestMOREHeaderTruncation(t *testing.T) {
	h := &MOREHeader{Type: TypeData, CodeVector: []byte{1, 2, 3}, Forwarders: []Forwarder{{Node: 1}}}
	buf, _ := h.Encode(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeMOREHeader(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestMOREHeaderBadType(t *testing.T) {
	buf := make([]byte, 64)
	buf[0] = 99
	if _, _, err := DecodeMOREHeader(buf); err != ErrBadType {
		t.Fatalf("err = %v", err)
	}
}

func TestACKRoundTrip(t *testing.T) {
	a := &ACK{FlowID: 5, BatchID: 17, Final: true}
	buf := a.Encode(nil)
	if len(buf) != a.EncodedSize() {
		t.Fatalf("size %d != %d", len(buf), a.EncodedSize())
	}
	got, n, err := DecodeACK(buf)
	if err != nil || n != len(buf) {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("%+v != %+v", got, a)
	}
	if _, _, err := DecodeACK(buf[:5]); err == nil {
		t.Fatal("short ACK decoded")
	}
}

func TestExORHeaderRoundTrip(t *testing.T) {
	h := &ExORHeader{
		FlowID:        9,
		BatchID:       3,
		PktIdx:        12,
		BatchSize:     32,
		FragRemaining: 4,
		SenderPrio:    2,
		BatchMap:      bytes.Repeat([]byte{BatchMapUnknown}, 32),
		Forwarders:    []uint8{NodeHash(1), NodeHash(2)},
	}
	h.BatchMap[3] = 1
	buf, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != h.EncodedSize() {
		t.Fatalf("size mismatch %d != %d", len(buf), h.EncodedSize())
	}
	got, n, err := DecodeExORHeader(buf)
	if err != nil || n != len(buf) {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("%+v != %+v", got, h)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeExORHeader(buf[:cut]); err == nil {
			t.Fatalf("short decode at %d succeeded", cut)
		}
	}
}

func TestSrcrHeaderRoundTrip(t *testing.T) {
	h := &SrcrHeader{FlowID: 1, Seq: 999, Hop: 1, Route: []graph.NodeID{4, 7, 2}}
	buf, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != h.EncodedSize() {
		t.Fatalf("size mismatch")
	}
	got, n, err := DecodeSrcrHeader(buf)
	if err != nil || n != len(buf) {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("%+v != %+v", got, h)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	p := &Probe{Origin: 13, Seq: 77, Window: 100}
	buf := p.Encode(nil)
	got, n, err := DecodeProbe(buf)
	if err != nil || n != len(buf) || !reflect.DeepEqual(got, p) {
		t.Fatalf("probe round trip failed: %+v %v", got, err)
	}
	if _, _, err := DecodeProbe(buf[:3]); err == nil {
		t.Fatal("short probe decoded")
	}
}

func TestNodeHashDistinctForSmallIDs(t *testing.T) {
	seen := map[uint8]graph.NodeID{}
	for id := graph.NodeID(0); id < 40; id++ {
		h := NodeHash(id)
		if prev, ok := seen[h]; ok {
			t.Fatalf("hash collision: nodes %d and %d -> %d", prev, id, h)
		}
		seen[h] = id
	}
}

func TestCreditWireSaturation(t *testing.T) {
	if CreditToWire(-1) != 0 {
		t.Fatal("negative credit should clamp to 0")
	}
	if CreditToWire(1e9) != 65535 {
		t.Fatal("huge credit should saturate")
	}
	if got := CreditFromWire(CreditToWire(0.5)); got != 0.5 {
		t.Fatalf("0.5 round trip = %v", got)
	}
}

func TestQuickMOREHeaderRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(flow uint16, src, dst, batch uint8, kRaw, nfRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw) % 129
		nf := int(nfRaw) % 11
		h := &MOREHeader{
			Type: TypeData, FlowID: flow, SrcHash: src, DstHash: dst, BatchID: batch,
		}
		if k > 0 {
			h.CodeVector = make([]byte, k)
			rng.Read(h.CodeVector)
		}
		for i := 0; i < nf; i++ {
			h.Forwarders = append(h.Forwarders, Forwarder{
				Hash:   uint8(rng.Intn(255) + 1),
				Credit: uint16(rng.Intn(65536)),
			})
		}
		buf, err := h.Encode(nil)
		if err != nil {
			return false
		}
		got, n, err := DecodeMOREHeader(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if got.FlowID != flow || got.BatchID != batch || !bytes.Equal(got.CodeVector, h.CodeVector) {
			return false
		}
		if len(got.Forwarders) != nf {
			return false
		}
		for i := range got.Forwarders {
			if got.Forwarders[i].Hash != h.Forwarders[i].Hash ||
				got.Forwarders[i].Credit != h.Forwarders[i].Credit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(100))
		rng.Read(b)
		DecodeMOREHeader(b)
		DecodeACK(b)
		DecodeExORHeader(b)
		DecodeSrcrHeader(b)
		DecodeProbe(b)
	}
}

func TestBatchNewer(t *testing.T) {
	cases := []struct {
		a, b uint8
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{5, 5, false},
		{0, 255, true}, // wraparound
		{255, 0, false},
		{130, 5, true},
		{5, 130, false},
	}
	for _, c := range cases {
		if got := BatchNewer(c.a, c.b); got != c.want {
			t.Errorf("BatchNewer(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLSARoundTrip(t *testing.T) {
	l := &LSA{
		Origin:    7,
		Seq:       42,
		Neighbors: []graph.NodeID{1, 3, 9},
		Probs:     []uint8{QuantizeProb(0.9), QuantizeProb(0.5), QuantizeProb(0.1)},
	}
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
	if _, err := (&LSA{Neighbors: make([]graph.NodeID, 1)}).Encode(nil); err == nil {
		t.Fatal("mismatched neighbor/prob lengths accepted")
	}
}

func TestQuantizeProb(t *testing.T) {
	if QuantizeProb(-1) != 0 || QuantizeProb(2) != 255 {
		t.Fatal("clamping broken")
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := UnquantizeProb(QuantizeProb(p))
		if got < p-0.01 || got > p+0.01 {
			t.Fatalf("quantize round trip %v -> %v", p, got)
		}
	}
}

// TestHeaderSizeMatchesEncode: the size functions senders charge frames by
// equal the length of the encoding, for every shape Encode accepts (each
// count is one length byte: 0..255).
func TestHeaderSizeMatchesEncode(t *testing.T) {
	var (
		buf []byte
		err error
	)
	more := &MOREHeader{Type: TypeData}
	exor := &ExORHeader{}
	vector, fwd, hashes := make([]byte, 255), make([]Forwarder, 255), make([]uint8, 255)
	for a := 0; a <= 255; a++ {
		for b := 0; b <= 255; b++ {
			more.CodeVector, more.Forwarders = vector[:a], fwd[:b]
			buf, err = more.Encode(buf[:0])
			if err != nil || len(buf) != MOREHeaderSize(a, b) || len(buf) != more.EncodedSize() {
				t.Fatalf("MORE vector %d forwarders %d: encoded %d B (%v), MOREHeaderSize %d, EncodedSize %d",
					a, b, len(buf), err, MOREHeaderSize(a, b), more.EncodedSize())
			}
			exor.BatchMap, exor.Forwarders = vector[:a], hashes[:b]
			buf, err = exor.Encode(buf[:0])
			if err != nil || len(buf) != ExORHeaderSize(a, b) || len(buf) != exor.EncodedSize() {
				t.Fatalf("ExOR batch map %d priority list %d: encoded %d B (%v), ExORHeaderSize %d, EncodedSize %d",
					a, b, len(buf), err, ExORHeaderSize(a, b), exor.EncodedSize())
			}
		}
		srcr := &SrcrHeader{Route: make([]graph.NodeID, a)}
		buf, err = srcr.Encode(buf[:0])
		if err != nil || len(buf) != SrcrHeaderSize(a) || len(buf) != srcr.EncodedSize() {
			t.Fatalf("Srcr route %d: encoded %d B (%v), SrcrHeaderSize %d, EncodedSize %d",
				a, len(buf), err, SrcrHeaderSize(a), srcr.EncodedSize())
		}
	}
}
