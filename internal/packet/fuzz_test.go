package packet

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// decoderSeeds is the seed corpus of FuzzDecoders: the encodings the
// round-trip tests of this package use, one per format and per optional
// field — among them the LSA with its TTL on a count-byte flag bit, and the
// bytes of the retired load-carrying LSA, whose bit-7 flag DecodeLSA refuses
// (TestLSALoadFlagIsMalformed). The same documents are checked in under
// testdata/fuzz/FuzzDecoders as seed-NN, beside the inputs fuzzing found.
func decoderSeeds(t testing.TB) [][]byte {
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	lsa := LSA{Origin: 7, Seq: 42, Neighbors: []graph.NodeID{1, 3, 9}, Probs: []uint8{200, 128, 25}}
	withTTL := lsa
	withTTL.TTL = 2
	return [][]byte{
		must((&MOREHeader{
			Type: TypeData, FlowID: 42, SrcHash: NodeHash(0), DstHash: NodeHash(19), BatchID: 7,
			CodeVector: []byte{1, 2, 3, 0, 255},
			Forwarders: []Forwarder{{Node: 3, Credit: CreditToWire(1.5)}, {Node: 9, Credit: CreditToWire(0.25)}},
		}).Encode(nil)),
		must((&MOREHeader{Type: TypeACK, FlowID: 9, BatchID: 255}).Encode(nil)),
		must((&MOREHeader{Type: TypeData, CodeVector: make([]byte, 32), Forwarders: make([]Forwarder, MaxForwarders)}).Encode(nil)),
		(&ACK{FlowID: 5, BatchID: 77, Final: true}).encode(nil),
		(&ACK{FlowID: 1 << 31, BatchID: 0}).encode(nil),
		must((&ExORHeader{
			FlowID: 3, BatchID: 11, PktIdx: 4, BatchSize: 8, FragRemaining: 2, SenderPrio: 1,
			BatchMap:   []uint8{0, 1, BatchMapUnknown, 2, 0, 0, 1, BatchMapUnknown},
			Forwarders: []uint8{NodeHash(5), NodeHash(2), NodeHash(8)},
		}).encode(nil)),
		must((&ExORHeader{}).encode(nil)),
		must((&SrcrHeader{FlowID: 8, Seq: 1234, Hop: 1, Route: []graph.NodeID{0, 4, 7, 19}}).encode(nil)),
		must((&SrcrHeader{}).encode(nil)),
		(&Probe{Origin: 12, Seq: 99, Window: 10}).encode(nil),
		must(lsa.Encode(nil)),
		loadFlaggedLSAs[0],
		must(withTTL.Encode(nil)),
		loadFlaggedLSAs[1],
		must((&LSA{Origin: 65535, Seq: 1<<32 - 1, Neighbors: make([]graph.NodeID, 63), Probs: make([]uint8, 63), TTL: 1}).Encode(nil)),
		{byte(TypeData), 0, 0, 0, 0, 0, 255}, // a length byte promising more than there is
	}
}

// checkDecoder holds one decoder to the wire contract on arbitrary bytes: it
// returns an error or a value, never panics; a value consumed a non-empty
// prefix of the input, re-encodes without error to exactly size(v) bytes,
// and those bytes decode, whole, to an equal value.
func checkDecoder[T any](t *testing.T, name string, b []byte,
	decode func([]byte) (*T, int, error), encode func(*T) ([]byte, error), size func(*T) int) {
	t.Helper()
	v, n, err := decode(b)
	if err != nil {
		if v != nil || n != 0 {
			t.Fatalf("%s: error %v together with a value (%v) or a length (%d)", name, err, v, n)
		}
		return
	}
	if v == nil || n <= 0 || n > len(b) {
		t.Fatalf("%s: decoded %v consuming %d of %d bytes", name, v, n, len(b))
	}
	enc, err := encode(v)
	if err != nil {
		t.Fatalf("%s: decoded value %+v does not re-encode: %v", name, *v, err)
	}
	if len(enc) != size(v) {
		t.Fatalf("%s: %+v encodes to %d bytes, its size function says %d", name, *v, len(enc), size(v))
	}
	again, n2, err := decode(enc)
	if err != nil || n2 != len(enc) {
		t.Fatalf("%s: re-encoding of %+v decodes %d of %d bytes, error %v", name, *v, n2, len(enc), err)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("%s: %+v re-encoded and decoded is %+v", name, *v, *again)
	}
}

// noErr adapts the encoders that cannot fail.
func noErr[T any](encode func(*T, []byte) []byte) func(*T) ([]byte, error) {
	return func(v *T) ([]byte, error) { return encode(v, nil), nil }
}

// FuzzDecoders feeds the same bytes to all six wire decoders: none may
// panic, and whatever decodes re-encodes to its size function's length and
// decodes again to an equal value. The headers' sizes are the functions
// senders charge frames by (EncodedSize is defined through them). The seeds
// are the round-trip tests' encodings and what fuzzing found.
func FuzzDecoders(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecoder(t, "MOREHeader", b, DecodeMOREHeader,
			func(h *MOREHeader) ([]byte, error) { return h.Encode(nil) },
			func(h *MOREHeader) int { return MOREHeaderSize(len(h.CodeVector), len(h.Forwarders)) })
		checkDecoder(t, "ACK", b, decodeACK, noErr((*ACK).encode), (*ACK).EncodedSize)
		checkDecoder(t, "ExORHeader", b, decodeExORHeader,
			func(h *ExORHeader) ([]byte, error) { return h.encode(nil) },
			func(h *ExORHeader) int { return ExORHeaderSize(len(h.BatchMap), len(h.Forwarders)) })
		checkDecoder(t, "SrcrHeader", b, decodeSrcrHeader,
			func(h *SrcrHeader) ([]byte, error) { return h.encode(nil) },
			func(h *SrcrHeader) int { return SrcrHeaderSize(len(h.Route)) })
		checkDecoder(t, "Probe", b, decodeProbe, noErr((*Probe).encode), (*Probe).EncodedSize)
		checkDecoder(t, "LSA", b, DecodeLSA,
			func(l *LSA) ([]byte, error) { return l.Encode(nil) }, (*LSA).EncodedSize)
	})
}
