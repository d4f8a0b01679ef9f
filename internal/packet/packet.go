// Package packet defines the wire formats of the thesis' protocols: the
// MORE header (Fig 3-1) with its compressed forwarder list (§4.6(c)), MORE
// batch ACKs, ExOR headers with batch maps, Srcr source-route headers, and
// ETX probe frames. Each format has a binary encoding with round-trip
// encode/decode; the simulator charges frames for their encoded size, so
// header overhead (§4.6) is paid on the air exactly as in the real system.
// No run encodes a frame: the simulator prices one with the *HeaderSize and
// EncodedSize arithmetic, and the codecs are the oracle that arithmetic is
// tested against (TestHeaderSizeMatchesEncode, FuzzDecoders). Only the MORE
// header's and the LSA's codecs are exported, for the benchmark's per-layer
// timings.
//
// All multi-byte integers are big-endian.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Type identifies the MORE packet type (the header's first field
// distinguishes batch ACKs from data packets, Fig 3-1).
type Type uint8

// MORE packet types.
const (
	TypeData Type = 1
	TypeACK  Type = 2
)

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("packet: truncated")
	ErrBadType   = errors.New("packet: unknown type")
	ErrTooMany   = errors.New("packet: field count out of range")
)

// CreditScale converts a floating TX credit to the 16-bit fixed-point wire
// representation (1/256 granularity).
const CreditScale = 256

// MaxForwarders bounds the forwarder list; the implementation bounds it to
// 10 (§4.6(c)).
const MaxForwarders = 10

// NodeHash compresses a node ID to one byte, as §4.6(c) compresses node IDs
// in the forwarder list to a hash of the IP. Within a single mesh the IDs
// are small, so the byte is collision-free in practice; the decoder resolves
// it against the plan like the real system resolves hashes against ETX
// state.
func NodeHash(id graph.NodeID) uint8 {
	// A tiny multiplicative hash so distinct small IDs stay distinct and
	// spread across the byte space.
	return uint8((uint32(id)*167 + 13) % 251)
}

// Forwarder is one entry of the MORE forwarder list: the compressed node ID
// and the node's TX credit in fixed point.
type Forwarder struct {
	Node   graph.NodeID // kept for convenience; encoded as NodeHash(Node)
	Hash   uint8
	Credit uint16 // TX credit × CreditScale
}

// MOREHeader is the header MORE prepends to every packet (Fig 3-1), in the
// compressed on-air form of §4.6(c): node addresses are 1-byte hashes of
// the IP (only nodes closer to the destination than the source may forward,
// so the hash resolves unambiguously), and the batch ID is a few bits
// because routers only keep the current batch — we spend one byte, the
// batch sequence modulo 256. Grey (required) fields are always
// present; the code vector and forwarder list appear only in data packets.
//
// With K = 32 and the 10-forwarder bound the header is exactly 70 bytes,
// matching the thesis' bound, under 5% of a 1500 B packet.
type MOREHeader struct {
	Type    Type
	FlowID  uint16
	SrcHash uint8 // NodeHash of the source
	DstHash uint8 // NodeHash of the destination
	BatchID uint8 // batch sequence modulo 256

	// CodeVector is present in data packets only: the coefficients that
	// generate the coded packet from the batch's natives (length K).
	CodeVector []byte

	// Forwarders is the ordered candidate forwarder list with TX credits.
	Forwarders []Forwarder
}

// dataHeaderFixed is the encoded size of the required fields plus the two
// optional-field length bytes.
const dataHeaderFixed = 1 + 2 + 1 + 1 + 1 + 1 + 1

// MOREHeaderSize is the on-air size of a header carrying a code vector of
// vectorLen coefficients and a forwarder list of forwarders entries (one
// hash byte and a 16-bit credit each): what a sender needs to charge a frame
// without materializing the header.
func MOREHeaderSize(vectorLen, forwarders int) int {
	return dataHeaderFixed + vectorLen + 3*forwarders
}

// EncodedSize returns the on-air size of the header in bytes.
func (h *MOREHeader) EncodedSize() int {
	return MOREHeaderSize(len(h.CodeVector), len(h.Forwarders))
}

// Encode appends the wire form of h to dst and returns the result.
func (h *MOREHeader) Encode(dst []byte) ([]byte, error) {
	if len(h.CodeVector) > 255 {
		return nil, fmt.Errorf("%w: code vector %d", ErrTooMany, len(h.CodeVector))
	}
	if len(h.Forwarders) > 255 {
		return nil, fmt.Errorf("%w: forwarders %d", ErrTooMany, len(h.Forwarders))
	}
	dst = append(dst, byte(h.Type))
	dst = binary.BigEndian.AppendUint16(dst, h.FlowID)
	dst = append(dst, h.SrcHash, h.DstHash, h.BatchID)
	dst = append(dst, byte(len(h.CodeVector)))
	dst = append(dst, h.CodeVector...)
	dst = append(dst, byte(len(h.Forwarders)))
	for _, f := range h.Forwarders {
		// A zero Hash on an entry that names its node is "not filled in".
		// On a decoded entry (Node == -1) it is the hash that was on the
		// wire — some node IDs do hash to 0 — and goes back as it came.
		hash := f.Hash
		if hash == 0 && f.Node >= 0 {
			hash = NodeHash(f.Node)
		}
		dst = append(dst, hash)
		dst = binary.BigEndian.AppendUint16(dst, f.Credit)
	}
	return dst, nil
}

// DecodeMOREHeader parses a MORE header from b, returning the header and
// the number of bytes consumed. Node IDs in the forwarder list come back as
// hashes only (Node == -1); resolve them with ResolveForwarders.
func DecodeMOREHeader(b []byte) (*MOREHeader, int, error) {
	if len(b) < dataHeaderFixed-1 {
		return nil, 0, ErrTruncated
	}
	h := &MOREHeader{Type: Type(b[0])}
	if h.Type != TypeData && h.Type != TypeACK {
		return nil, 0, ErrBadType
	}
	h.FlowID = binary.BigEndian.Uint16(b[1:])
	h.SrcHash = b[3]
	h.DstHash = b[4]
	h.BatchID = b[5]
	off := 6
	if off >= len(b) {
		return nil, 0, ErrTruncated
	}
	k := int(b[off])
	off++
	if off+k > len(b) {
		return nil, 0, ErrTruncated
	}
	if k > 0 {
		h.CodeVector = append([]byte(nil), b[off:off+k]...)
	}
	off += k
	if off >= len(b) {
		return nil, 0, ErrTruncated
	}
	nf := int(b[off])
	off++
	if off+3*nf > len(b) {
		return nil, 0, ErrTruncated
	}
	for i := 0; i < nf; i++ {
		h.Forwarders = append(h.Forwarders, Forwarder{
			Node:   -1,
			Hash:   b[off],
			Credit: binary.BigEndian.Uint16(b[off+1:]),
		})
		off += 3
	}
	return h, off, nil
}

// ResolveForwarders maps hashed forwarder entries back to node IDs given
// the candidate set (as the real system resolves IP hashes against the
// nodes whose ETX allows them to participate, §4.6(c)). Entries whose hash
// matches no candidate keep Node == -1.
func ResolveForwarders(fw []Forwarder, candidates []graph.NodeID) {
	byHash := make(map[uint8]graph.NodeID, len(candidates))
	for _, id := range candidates {
		byHash[NodeHash(id)] = id
	}
	for i := range fw {
		if id, ok := byHash[fw[i].Hash]; ok {
			fw[i].Node = id
		}
	}
}

// CreditToWire converts a float credit to wire fixed point, saturating.
func CreditToWire(c float64) uint16 {
	v := float64(c * CreditScale)
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return uint16(v + 0.5)
}

// CreditFromWire converts wire fixed point back to float.
func CreditFromWire(w uint16) float64 { return float64(w) / CreditScale }

// ACK is a MORE batch acknowledgment. It is carried in a packet whose MORE
// header has Type == TypeACK; the body identifies the acked batch.
type ACK struct {
	FlowID  uint32
	BatchID uint32
	// Final marks the ACK of the flow's last batch, letting the source
	// release flow state.
	Final bool
}

// EncodedSize returns the encoded ACK body size.
func (a *ACK) EncodedSize() int { return 9 }

// encode appends the wire form of a to dst.
func (a *ACK) encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, a.FlowID)
	dst = binary.BigEndian.AppendUint32(dst, a.BatchID)
	final := byte(0)
	if a.Final {
		final = 1
	}
	return append(dst, final)
}

// decodeACK parses an ACK body.
func decodeACK(b []byte) (*ACK, int, error) {
	if len(b) < 9 {
		return nil, 0, ErrTruncated
	}
	return &ACK{
		FlowID:  binary.BigEndian.Uint32(b),
		BatchID: binary.BigEndian.Uint32(b[4:]),
		Final:   b[8] != 0,
	}, 9, nil
}
