package packet

import (
	"encoding/binary"

	"repro/internal/graph"
)

// ExORHeader is the header ExOR attaches to batch fragments (§2.2.1). Each
// data packet carries the batch map: for every packet in the batch, the
// highest-priority node known to have received it, as an index into the
// forwarder list. Listeners merge overheard batch maps so a node forwards
// only packets no higher-priority node holds.
type ExORHeader struct {
	FlowID  uint32
	BatchID uint32
	// PktIdx is this packet's index within the batch.
	PktIdx uint8
	// BatchSize is K.
	BatchSize uint8
	// FragRemaining counts how many more packets the sender will transmit
	// in its current fragment; 0 marks the fragment end, the handoff
	// signal to the next scheduled forwarder.
	FragRemaining uint8
	// SenderPrio is the transmitting node's position in the priority list
	// (0 = destination = highest priority).
	SenderPrio uint8
	// BatchMap[i] is the priority index of the highest-priority node known
	// to have packet i (0xFF = nobody known).
	BatchMap []uint8
	// Forwarders is the prioritized forwarder list (compressed to hashes,
	// like MORE's).
	Forwarders []uint8
}

// BatchMapUnknown marks a packet with no known holder.
const BatchMapUnknown = 0xFF

// ExORHeaderSize is the on-air size of a header carrying a batch map of
// batchMap entries and a priority list of forwarders one-byte hashes.
func ExORHeaderSize(batchMap, forwarders int) int {
	return 4 + 4 + 1 + 1 + 1 + 1 + 1 + batchMap + 1 + forwarders
}

// encodedSize returns the on-air header size.
func (h *ExORHeader) encodedSize() int {
	return ExORHeaderSize(len(h.BatchMap), len(h.Forwarders))
}

// encode appends the wire form of h to dst.
func (h *ExORHeader) encode(dst []byte) ([]byte, error) {
	if len(h.BatchMap) > 255 || len(h.Forwarders) > 255 {
		return nil, ErrTooMany
	}
	dst = binary.BigEndian.AppendUint32(dst, h.FlowID)
	dst = binary.BigEndian.AppendUint32(dst, h.BatchID)
	dst = append(dst, h.PktIdx, h.BatchSize, h.FragRemaining, h.SenderPrio)
	dst = append(dst, byte(len(h.BatchMap)))
	dst = append(dst, h.BatchMap...)
	dst = append(dst, byte(len(h.Forwarders)))
	dst = append(dst, h.Forwarders...)
	return dst, nil
}

// decodeExORHeader parses an ExOR header.
func decodeExORHeader(b []byte) (*ExORHeader, int, error) {
	if len(b) < 13 {
		return nil, 0, ErrTruncated
	}
	h := &ExORHeader{
		FlowID:        binary.BigEndian.Uint32(b),
		BatchID:       binary.BigEndian.Uint32(b[4:]),
		PktIdx:        b[8],
		BatchSize:     b[9],
		FragRemaining: b[10],
		SenderPrio:    b[11],
	}
	off := 12
	bm := int(b[off])
	off++
	if off+bm > len(b) {
		return nil, 0, ErrTruncated
	}
	if bm > 0 {
		h.BatchMap = append([]uint8(nil), b[off:off+bm]...)
	}
	off += bm
	if off >= len(b) {
		return nil, 0, ErrTruncated
	}
	nf := int(b[off])
	off++
	if off+nf > len(b) {
		return nil, 0, ErrTruncated
	}
	if nf > 0 {
		h.Forwarders = append([]uint8(nil), b[off:off+nf]...)
	}
	off += nf
	return h, off, nil
}

// SrcrHeader is the source-route header Srcr prepends: the full hop list
// the packet must traverse, plus a cursor.
type SrcrHeader struct {
	FlowID uint32
	Seq    uint32 // end-to-end packet sequence number
	Hop    uint8  // index of the current hop in Route
	Route  []graph.NodeID
}

// SrcrHeaderSize is the on-air size of a header recording hops hops (2 bytes
// each).
func SrcrHeaderSize(hops int) int { return 4 + 4 + 1 + 1 + 2*hops }

// EncodedSize returns the on-air header size.
func (h *SrcrHeader) EncodedSize() int { return SrcrHeaderSize(len(h.Route)) }

// encode appends the wire form of h to dst.
func (h *SrcrHeader) encode(dst []byte) ([]byte, error) {
	if len(h.Route) > 255 {
		return nil, ErrTooMany
	}
	dst = binary.BigEndian.AppendUint32(dst, h.FlowID)
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	dst = append(dst, h.Hop, byte(len(h.Route)))
	for _, n := range h.Route {
		dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	}
	return dst, nil
}

// decodeSrcrHeader parses a Srcr header.
func decodeSrcrHeader(b []byte) (*SrcrHeader, int, error) {
	if len(b) < 10 {
		return nil, 0, ErrTruncated
	}
	h := &SrcrHeader{
		FlowID: binary.BigEndian.Uint32(b),
		Seq:    binary.BigEndian.Uint32(b[4:]),
		Hop:    b[8],
	}
	n := int(b[9])
	off := 10
	if off+2*n > len(b) {
		return nil, 0, ErrTruncated
	}
	for i := 0; i < n; i++ {
		h.Route = append(h.Route, graph.NodeID(binary.BigEndian.Uint16(b[off:])))
		off += 2
	}
	return h, off, nil
}

// Probe is an ETX link probe (§3.2.1(b)): nodes broadcast periodic probes;
// receivers count them to estimate delivery ratios.
type Probe struct {
	Origin graph.NodeID
	Seq    uint32
	// Window is the probe period count the estimator divides by.
	Window uint16
}

// EncodedSize returns the probe body size.
func (p *Probe) EncodedSize() int { return 2 + 4 + 2 }

// encode appends the wire form of p to dst.
func (p *Probe) encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Origin))
	dst = binary.BigEndian.AppendUint32(dst, p.Seq)
	return binary.BigEndian.AppendUint16(dst, p.Window)
}

// decodeProbe parses a probe body.
func decodeProbe(b []byte) (*Probe, int, error) {
	if len(b) < 8 {
		return nil, 0, ErrTruncated
	}
	return &Probe{
		Origin: graph.NodeID(binary.BigEndian.Uint16(b)),
		Seq:    binary.BigEndian.Uint32(b[2:]),
		Window: binary.BigEndian.Uint16(b[6:]),
	}, 8, nil
}

// LSA is a link-state advertisement (§3.2.1(b)): a node's measured inbound
// delivery ratios, flooded so every node can build the loss-annotated
// network graph locally. Probabilities are quantized to 1/255.
type LSA struct {
	Origin graph.NodeID
	Seq    uint32
	// Neighbors and Probs are parallel: Probs[i] is the delivery
	// probability of link Neighbors[i] -> Origin, quantized.
	Neighbors []graph.NodeID
	Probs     []uint8
	// TTL is the flood scope in hops (fisheye rings): a forwarder drops the
	// LSA once the TTL it received is 1, so an origin can address a ring of
	// near neighbors without paying a network-wide flood. Zero means
	// unscoped — flood everywhere, the classic link-state behavior — and is
	// not encoded at all (a count-byte flag), so unscoped runs produce
	// byte-identical LSAs.
	TTL uint8
	// Heard is simulation-side state, like sim.Frame's MAC sequence number:
	// the nodes that have already processed this advertisement, allocated
	// once by the origin and shared by every TTL-decremented copy (copying
	// the struct copies the slice header). It is never encoded, decoded or
	// compared; an LSA without one — every DecodeLSA result — is simply
	// checked against the receiver's own database.
	Heard graph.NodeSet
	// outward is simulation-side too: the copy one hop further out (TTL one
	// less, Heard shared), made once by Outward and never encoded.
	outward *LSA
}

// Outward returns the copy of l a forwarder floods one hop further out: the
// same advertisement with TTL one less, sharing Heard. It is made on the
// first call and shared by every later one, so every forwarder of one
// TTL-t copy floods one and the same TTL-t−1 copy; l itself is not
// changed. Call it only on a scoped LSA (TTL > 1) that is no longer edited.
func (l *LSA) Outward() *LSA {
	if l.outward == nil {
		c := *l
		c.TTL--
		l.outward = &c
	}
	return l.outward
}

// lsaTTLFlag marks an LSA that carries a trailing scope-TTL byte. It rides
// bit 6 of the neighbor-count byte, capping LSA neighbors at 63 — still ~6×
// any simulated neighborhood. Bit 7 is never set; a count byte with it set
// is malformed.
const lsaTTLFlag = 0x40

// QuantizeProb maps [0,1] to a byte.
func QuantizeProb(p float64) uint8 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 255
	}
	return uint8(p*255 + 0.5)
}

// UnquantizeProb inverts QuantizeProb.
func UnquantizeProb(q uint8) float64 { return float64(q) / 255 }

// EncodedSize returns the LSA's on-air size. A nonzero TTL costs one extra
// byte; the zero-TTL size matches the original wire format exactly.
func (l *LSA) EncodedSize() int {
	n := 2 + 4 + 1 + 3*len(l.Neighbors)
	if l.TTL != 0 {
		n++
	}
	return n
}

// Encode appends the wire form of l to dst.
func (l *LSA) Encode(dst []byte) ([]byte, error) {
	if len(l.Neighbors) != len(l.Probs) {
		return nil, ErrTooMany
	}
	// The count byte's bit 6 is the TTL flag, so 63 neighbors is the cap
	// whether or not it is present (an order of magnitude above any
	// simulated neighborhood).
	if len(l.Neighbors) > 63 {
		return nil, ErrTooMany
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(l.Origin))
	dst = binary.BigEndian.AppendUint32(dst, l.Seq)
	count := byte(len(l.Neighbors))
	if l.TTL != 0 {
		count |= lsaTTLFlag
	}
	dst = append(dst, count)
	for i, nb := range l.Neighbors {
		dst = binary.BigEndian.AppendUint16(dst, uint16(nb))
		dst = append(dst, l.Probs[i])
	}
	if l.TTL != 0 {
		dst = append(dst, l.TTL)
	}
	return dst, nil
}

// DecodeLSA parses an LSA.
func DecodeLSA(b []byte) (*LSA, int, error) {
	if len(b) < 7 {
		return nil, 0, ErrTruncated
	}
	l := &LSA{
		Origin: graph.NodeID(binary.BigEndian.Uint16(b)),
		Seq:    binary.BigEndian.Uint32(b[2:]),
	}
	count := b[6]
	hasTTL := count&lsaTTLFlag != 0
	n := int(count &^ lsaTTLFlag)
	if n > 63 {
		// Bit 7 is set: past Encode's cap, so no encoder wrote these bytes.
		return nil, 0, ErrTooMany
	}
	off := 7
	if off+3*n > len(b) {
		return nil, 0, ErrTruncated
	}
	for i := 0; i < n; i++ {
		l.Neighbors = append(l.Neighbors, graph.NodeID(binary.BigEndian.Uint16(b[off:])))
		l.Probs = append(l.Probs, b[off+2])
		off += 3
	}
	if hasTTL {
		if off >= len(b) {
			return nil, 0, ErrTruncated
		}
		l.TTL = b[off]
		off++
	}
	return l, off, nil
}
