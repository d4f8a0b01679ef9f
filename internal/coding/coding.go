// Package coding implements MORE's intra-flow random linear network coding
// (Chapter 3 of the thesis).
//
// A batch consists of K native packets p_1 … p_K of equal size. Every data
// transmission carries a coded packet p' = Σ c_i p_i together with its code
// vector c = (c_1, …, c_K) over GF(2^8). The package provides:
//
//   - Packet: a coded packet (code vector + payload).
//   - Source: codes random combinations of the K native packets (§3.1.1).
//   - Buffer: a forwarder's batch buffer that keeps the code vectors of
//     stored packets in row-echelon form and admits only innovative packets
//     using Algorithm 2 (§3.2.3(a),(b)). Payloads stay as received: a K×K
//     transform records each echelon row as a combination of them, and each
//     slot's echelon vector and transform row sit side by side in one
//     2K-byte row of one matrix, so a relay combines payload bytes only for
//     a packet a receiver reads.
//   - PreCoder: the pre-computed next transmission (§3.2.3(c)), held as a
//     code vector plus its coefficients over the received payloads and
//     updated incrementally as innovative packets arrive. Take hands out a
//     packet whose payload is combined on first read (see Packet).
//   - Decoder: a Buffer run to full rank (§3.1.3). The destination admits
//     packets the way a forwarder does; once K innovative packets are
//     stored, back-substitution over the buffer's rows turns each transform
//     row into one native's weights over the received payloads, and one
//     word-wise multi-row combine over them recovers all K natives.
//   - Pool: a handle on the process-wide, GC-aware free list of packets of
//     one shape, shared by every node; with pools attached the whole
//     pipeline is allocation-free in steady state, and its output does not
//     depend on which buffer a Get returns (see pool.go for the ownership
//     rules).
//
// The byte crunching runs on the active gf256 kernel arm (GFNI, PSHUFB or
// the portable word-wise form): payloads only in multi-row combines —
// coding at the source, a forwarder's transmission, decoding at the
// destination — through gf256.Kernel, and the single-row steps on code
// vectors and transform rows — echelon elimination, back-substitution,
// pre-coder updates — through gf256.MulAddSlice/ScaleSlice.
//
// All randomness is drawn from a caller-supplied *rand.Rand so simulations
// are deterministic under a fixed seed.
package coding

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/gf256"
)

// Packet is a coded packet: the code vector describing how it was derived
// from the batch's native packets, plus the coded payload bytes.
//
// A packet PreCoder.Take hands out is pending: its payload is combined when
// it is first read, through CopyFrom or Clone, the paths a receiver copies
// it by, and not at all if it goes back to its Pool unread. Until then its
// Payload is nil and the bytes are parked in an unexported field, so a read
// that skips those paths finds no bytes rather than stale ones.
type Packet struct {
	// Vector has length K (the batch size). Vector[i] is the coefficient
	// of native packet i.
	Vector []byte
	// Payload is the coded data, the same length for every packet of a
	// batch; nil while the packet is pending.
	Payload []byte

	// While pending: src is the buffer whose received payloads the packet
	// combines, at is its index in src.pending, and parked holds the
	// payload bytes the combine fills. src is nil otherwise.
	src    *Buffer
	at     int
	parked []byte
}

// Clone returns a deep copy of p, combining p's payload first if it is
// pending.
func (p *Packet) Clone() *Packet {
	p.resolve()
	q := &Packet{
		Vector:  make([]byte, len(p.Vector)),
		Payload: make([]byte, len(p.Payload)),
	}
	copy(q.Vector, p.Vector)
	copy(q.Payload, p.Payload)
	return q
}

// CopyFrom overwrites p with q's contents, combining q's payload first if it
// is pending. The shapes must match; it is the pool-friendly alternative to
// Clone.
func (p *Packet) CopyFrom(q *Packet) {
	q.resolve()
	if len(p.Vector) != len(q.Vector) || len(p.Payload) != len(q.Payload) {
		panic("coding: CopyFrom shape mismatch")
	}
	copy(p.Vector, q.Vector)
	copy(p.Payload, q.Payload)
}

// resolve combines a pending packet's payload from its buffer's rows and the
// weights Take recorded, and ends its pending state.
func (p *Packet) resolve() {
	if b := p.src; b != nil {
		b.materialize(p.parked, b.weights(p.at))
		b.unpend(p)
	}
}

// IsZero reports whether the packet's code vector is all-zero (it then
// carries no information).
func (p *Packet) IsZero() bool {
	for _, c := range p.Vector {
		if c != 0 {
			return false
		}
	}
	return true
}

// randNonZero returns a uniformly random nonzero field element.
func randNonZero(rng *rand.Rand) byte {
	return byte(1 + rng.Intn(255))
}

// Source codes transmissions at the flow's origin: a random linear
// combination of all K native packets of the current batch (§3.1.1). In
// MORE, data packets are always coded, even at the source. The natives are
// captured into a gf256.Kernel at construction and at each Reset, so each
// Next is one rng.Read plus one word-wise multi-row combine, and a flow's
// batches of one shape share one kernel.
type Source struct {
	k    int
	size int
	rng  *rand.Rand
	kern *gf256.Kernel
	pool *Pool
}

// NewSource builds a Source for one batch of native payloads. All payloads
// must have equal nonzero length. The payload bytes are copied into the
// coding kernel's tables; later mutation of the natives does not affect
// coded output.
func NewSource(native [][]byte, rng *rand.Rand) (*Source, error) {
	if len(native) == 0 {
		return nil, errors.New("coding: empty batch")
	}
	size := len(native[0])
	if size == 0 {
		return nil, errors.New("coding: zero-size payloads")
	}
	s := &Source{k: len(native), size: size, rng: rng, kern: gf256.NewKernel()}
	if err := s.Reset(native); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset points the source at the next batch of the same shape: K payloads
// of PayloadSize bytes each, copied into the kernel the source already owns.
// Coded output after Reset is what a NewSource over the same natives and rng
// would produce.
func (s *Source) Reset(native [][]byte) error {
	if len(native) != s.k {
		return fmt.Errorf("coding: batch of %d payloads, source codes %d", len(native), s.k)
	}
	for i, p := range native {
		if len(p) != s.size {
			return fmt.Errorf("coding: payload %d has size %d, want %d", i, len(p), s.size)
		}
	}
	s.kern.SetRows(native)
	return nil
}

// K returns the batch size.
func (s *Source) K() int { return s.k }

// PayloadSize returns the common payload length.
func (s *Source) PayloadSize() int { return s.size }

// UsePool makes Next draw packets from p instead of allocating. The pool's
// shape must match the source's.
func (s *Source) UsePool(p *Pool) {
	if p.K() != s.k || p.PayloadSize() != s.size {
		panic("coding: Source.UsePool shape mismatch")
	}
	s.pool = p
}

// Next produces a freshly coded packet: random coefficients over all K
// natives, drawn with a single rng.Read. The coefficient of at least one
// native is forced nonzero so the packet is never the useless all-zero
// combination.
func (s *Source) Next() *Packet {
	var p *Packet
	if s.pool != nil {
		p = s.pool.Get()
	} else {
		p = &Packet{Vector: make([]byte, s.k), Payload: make([]byte, s.size)}
	}
	s.rng.Read(p.Vector)
	if p.IsZero() {
		// Exponentially unlikely for realistic K, but fix it up: pick a
		// random native to include with a nonzero coefficient.
		p.Vector[s.rng.Intn(s.k)] = randNonZero(s.rng)
	}
	s.kern.Combine(p.Payload, p.Vector)
	return p
}

// Buffer is the per-batch store of innovative packets kept by forwarders.
// Code vectors are maintained in row-echelon form: row i, if present, has
// its first nonzero element at index i and that element is normalized to 1
// (Algorithm 2). Payloads stay as received: a k×k transform records each
// echelon row's payload as a combination of the received ones, so admitting
// a packet does vector arithmetic only, and payload bytes are combined
// once, when a packet is read (Recode, and a pending packet's first read).
//
// Each slot's echelon vector and transform row are one 2k-byte row of one
// matrix, so elimination, pre-coding and updates walk contiguous rows with
// one field operation per row, and never touch the received packets.
type Buffer struct {
	k    int
	size int
	// rows[i] is nil if slot i is empty; otherwise the packet admitted into
	// it, whose Payload is the bytes as received (its Vector is not read).
	rows []*Packet
	// m holds slot i's row at m[2k·i:2k·(i+1)]: the echelon vector with its
	// leading 1 at i, then the transform row t_i, so slot i's echelon
	// payload is Σ_j t_i[j]·rows[j].Payload. A transform row refers only to
	// slots filled no later than its own, so rows never change once written
	// (until a Decoder's Decode reduces the full matrix).
	m    []byte
	rank int
	last int   // slot most recently admitted
	gen  int   // Reset count: a pre-coder's prepared transmission refers to one generation's rows
	pool *Pool // optional; recycles rejected and flushed packets

	// pending lists the packets Take handed out whose payloads are not
	// combined yet; pw holds their weights over the received payloads, k
	// bytes each, in the same order. Reset combines them before the rows
	// go, and a packet put back unread leaves without being combined.
	pending []*Packet
	pw      []byte

	// Reusable scratch so the steady state allocates nothing. rowScratch
	// (2k) is Innovative's vector, Add's row and Recode's vector and
	// weights.
	rowScratch  []byte
	coefScratch []byte
	payScratch  [][]byte
	kern        *gf256.Kernel
}

// NewBuffer creates an empty buffer for batch size k and payload size.
func NewBuffer(k, size int) *Buffer {
	backing := make([]byte, 2*k*k+3*k)
	return &Buffer{
		k:           k,
		size:        size,
		rows:        make([]*Packet, k),
		last:        -1,
		m:           backing[:2*k*k],
		rowScratch:  backing[2*k*k : 2*k*k+2*k],
		coefScratch: backing[2*k*k+2*k:],
		payScratch:  make([][]byte, 0, k),
		kern:        gf256.NewKernel(),
	}
}

// UsePool attaches a packet pool: Recode and Take draw from it, and Add and
// Reset recycle rejected or flushed packets into it. The pool's shape must
// match the buffer's.
func (b *Buffer) UsePool(p *Pool) {
	if p.K() != b.k || p.PayloadSize() != b.size {
		panic("coding: Buffer.UsePool shape mismatch")
	}
	b.pool = p
}

// Rank returns the number of innovative packets stored (the dimension of
// the span of everything received so far).
func (b *Buffer) Rank() int { return b.rank }

// Full reports whether the buffer holds K innovative packets, i.e. the
// whole batch can be decoded.
func (b *Buffer) Full() bool { return b.rank == b.k }

// row returns slot i's 2k-byte row: its echelon vector, then its transform
// row.
func (b *Buffer) row(i int) []byte { return b.m[2*i*b.k : 2*(i+1)*b.k] }

// Innovative reports whether a packet with the given code vector would be
// innovative (linearly independent of the stored packets) without modifying
// the buffer. A full buffer answers at once; otherwise the elimination runs
// on a scratch copy of the vector only — checking for innovativeness never
// touches payload bytes (§3.2.3(b)).
func (b *Buffer) Innovative(vector []byte) bool {
	if len(vector) != b.k || b.rank == b.k {
		return false
	}
	u := b.rowScratch[:b.k]
	copy(u, vector)
	for i := 0; i < b.k; i++ {
		if u[i] == 0 {
			continue
		}
		if b.rows[i] == nil {
			return true
		}
		// u -= vec_i*u[i]. Both are zero before i, so the suffix would
		// suffice — but at K = 32 the whole vector is one SIMD block and
		// every proper suffix falls back to the table loop.
		gf256.MulAddSlice(u, b.row(i)[:b.k], u[i])
	}
	return false
}

// Add runs Algorithm 2 on the packet's code vector: it reduces the vector,
// with a transform row beside it, against the stored rows and, if the
// result is nonzero, admits the packet into the empty slot it lands in and
// returns true (rank increased). The reduced row becomes the slot's row;
// the packet is stored as received. Non-innovative packets are discarded
// and Add returns false. The packet is consumed either way: with a pool
// attached a rejected packet is recycled.
func (b *Buffer) Add(p *Packet) bool {
	if len(p.Vector) != b.k || len(p.Payload) != b.size {
		return false
	}
	if b.rank < b.k {
		k := b.k
		u := b.rowScratch
		copy(u, p.Vector)
		clear(u[k:])
		for i := 0; i < k; i++ {
			c := u[i]
			if c == 0 {
				continue
			}
			if b.rows[i] == nil {
				// Admit: normalize the leading coefficient to 1. Slot i
				// was empty, so no transform row refers to it yet and its
				// weight is still zero: the received payload enters with
				// weight 1.
				u[k+i] = 1
				gf256.ScaleSlice(u, gf256.Inv(c))
				copy(b.row(i), u)
				b.rows[i] = p
				b.last = i
				b.rank++
				return true
			}
			// u -= row_i * c, vector and transform row in one pass.
			gf256.MulAddSlice(u, b.row(i), c)
		}
	}
	if b.pool != nil {
		b.pool.Put(p)
	}
	return false
}

// newPacket draws a packet of the buffer's shape from its pool, or
// allocates one.
func (b *Buffer) newPacket() *Packet {
	if b.pool != nil {
		return b.pool.Get()
	}
	return &Packet{Vector: make([]byte, b.k), Payload: make([]byte, b.size)}
}

// draw fills coefs (one per stored row) from rng, forcing the last nonzero
// if every draw came up zero so a transmission is never vacuous.
func draw(rng *rand.Rand, coefs []byte) {
	rng.Read(coefs)
	for _, c := range coefs {
		if c != 0 {
			return
		}
	}
	coefs[len(coefs)-1] = randNonZero(rng)
}

// combine sets out (2k bytes) to Σ coefs[j]·row_j over the stored rows in
// slot order: the combination's code vector, then its weights over the
// received payloads.
func (b *Buffer) combine(out, coefs []byte) {
	clear(out)
	j := 0
	for i, row := range b.rows {
		if row == nil {
			continue
		}
		gf256.MulAddSlice(out, b.row(i), coefs[j])
		j++
	}
}

// materialize sets dst = Σ_j w[j]·rows[j].Payload: the payload of the
// combination whose transform-row weights are w, in one multi-row combine
// over the received payloads. The combined rows change with every
// reception, so the kernel runs table-free.
func (b *Buffer) materialize(dst, w []byte) {
	pays := b.payScratch[:0]
	coefs := b.coefScratch[:0]
	for i, row := range b.rows {
		if row != nil {
			pays = append(pays, row.Payload)
			coefs = append(coefs, w[i])
		}
	}
	b.kern.CombineInto(dst, pays, coefs)
	b.payScratch = pays[:0]
}

// Recode produces a fresh random linear combination of the stored innovative
// packets (what a forwarder transmits, §3.1.2), its payload combined at
// once. It returns nil if the buffer is empty. A linear combination of
// coded packets is itself a coded packet whose vector is expressed in terms
// of the natives.
func (b *Buffer) Recode(rng *rand.Rand) *Packet {
	if b.rank == 0 {
		return nil
	}
	p := b.newPacket()
	coefs := b.coefScratch[:b.rank]
	draw(rng, coefs)
	b.combine(b.rowScratch, coefs)
	copy(p.Vector, b.rowScratch[:b.k])
	b.materialize(p.Payload, b.rowScratch[b.k:])
	return p
}

// pend makes p pending on b with weights w (copied): its payload moves to
// p.parked until it is read, put back, or b is Reset.
func (b *Buffer) pend(p *Packet, w []byte) {
	p.src, p.at = b, len(b.pending)
	p.parked, p.Payload = p.Payload, nil
	b.pending = append(b.pending, p)
	b.pw = append(b.pw, w...)
}

// weights returns the weights of pending packet i.
func (b *Buffer) weights(i int) []byte { return b.pw[i*b.k : (i+1)*b.k] }

// unpend ends p's pending state, whatever its payload bytes hold: the last
// pending packet takes p's place in the list.
func (b *Buffer) unpend(p *Packet) {
	last := len(b.pending) - 1
	if q := b.pending[last]; q != p {
		b.pending[p.at], q.at = q, p.at
		copy(b.weights(p.at), b.weights(last))
	}
	b.pending[last] = nil
	b.pending = b.pending[:last]
	b.pw = b.pw[:last*b.k]
	p.Payload, p.parked, p.src = p.parked, nil, nil
}

// Reset drops all stored packets (batch flush: overheard ACK or newer batch,
// §3.2.2), recycling them when a pool is attached. The payload of every
// packet still pending is combined first, from the rows about to go.
func (b *Buffer) Reset() {
	for len(b.pending) > 0 {
		b.pending[len(b.pending)-1].resolve()
	}
	for i, row := range b.rows {
		if row != nil && b.pool != nil {
			b.pool.Put(row)
		}
		b.rows[i] = nil
	}
	b.rank = 0
	b.last = -1
	b.gen++
}

// PreCoder maintains the next transmission ready for the instant the MAC
// offers an opportunity (§3.2.3(c)). It keeps the prepared packet as its
// code vector plus the coefficients of its payload over the buffer's
// received payloads, so preparing and updating it is vector arithmetic.
// Take hands the packet out pending: its payload is combined when a
// receiver first reads it, or never, if it goes back to the pool unread.
// After handing a packet out it prepares the next; when an innovative
// packet arrives in between, Update folds it in with a fresh random
// coefficient, so the prepared packet reflects everything the node knows.
// A buffer Reset (the batch flush) drops the prepared transmission with the
// rows it was made of.
type PreCoder struct {
	buf      *Buffer
	rng      *rand.Rand
	prepared int    // buf.gen when the transmission was prepared; −1 for none
	row      []byte // the prepared packet's code vector, then its payload's coefficients by slot
}

// NewPreCoder creates a PreCoder over the given buffer.
func NewPreCoder(buf *Buffer, rng *rand.Rand) *PreCoder {
	return &PreCoder{buf: buf, rng: rng, prepared: -1, row: make([]byte, 2*buf.k)}
}

// Ready reports whether a packet is prepared.
func (pc *PreCoder) Ready() bool { return pc.prepared == pc.buf.gen }

// Refresh prepares the next transmission from the current buffer contents,
// replacing anything prepared. Nothing is prepared if the buffer is empty.
func (pc *PreCoder) Refresh() {
	b := pc.buf
	if b.rank == 0 {
		pc.prepared = -1
		return
	}
	coefs := b.coefScratch[:b.rank]
	draw(pc.rng, coefs)
	b.combine(pc.row, coefs)
	pc.prepared = b.gen
}

// Update folds the buffer's most recently admitted row into the prepared
// transmission with a random nonzero coefficient. If nothing is prepared it
// performs a Refresh instead.
func (pc *PreCoder) Update() {
	if !pc.Ready() {
		pc.Refresh()
		return
	}
	b := pc.buf
	gf256.MulAddSlice(pc.row, b.row(b.last), randNonZero(pc.rng))
}

// Take hands out the prepared packet (or codes one on the spot if none is
// prepared — the "naive" path pre-coding exists to avoid), pending on the
// buffer with a copy of its weights, and prepares the next. Returns nil if
// the buffer is empty.
func (pc *PreCoder) Take() *Packet {
	if !pc.Ready() {
		if pc.Refresh(); !pc.Ready() {
			return nil
		}
	}
	b := pc.buf
	p := b.newPacket()
	copy(p.Vector, pc.row[:b.k])
	b.pend(p, pc.row[b.k:])
	pc.Refresh()
	return p
}

// Decoder recovers the K native packets at the destination (§3.1.3). It is
// a Buffer run to full rank: Add, Rank, Reset and UsePool are the relay's,
// so it keeps only innovative packets, stored as received. Once K are in,
// the echelon half of the buffer's matrix is upper triangular with a unit
// diagonal, and Decode back-substitutes over the 2K-byte rows until that
// half is the identity. Each slot's transform row then holds one native's
// weights over the received payloads, and one word-wise multi-row combine
// over those payloads recovers all K natives (§3.1.3 budgets ~2NS
// multiplications per packet; the kernel does the equivalent work
// word-wide).
type Decoder struct {
	Buffer
	decoded  bool
	natives  [][]byte // decode output, reused across Reset
	coefRows [][]byte // coefRows[i]: slot i's transform row, native i's weights once decoded
}

// NewDecoder creates a decoder for batch size k and payload size.
func NewDecoder(k, size int) *Decoder {
	return &Decoder{Buffer: *NewBuffer(k, size)}
}

// Complete reports whether enough innovative packets have arrived to decode
// the whole batch.
func (d *Decoder) Complete() bool { return d.Full() }

// Reset flushes the decoder for a new batch, recycling stored packets into
// the pool. The decode output buffers are retained for reuse.
func (d *Decoder) Reset() {
	d.Buffer.Reset()
	d.decoded = false
}

// Decode returns the K native payloads in order. It errors if the batch is
// not yet complete. It is idempotent; the returned slices are owned by the
// decoder and remain valid until the next Reset.
func (d *Decoder) Decode() ([][]byte, error) {
	if !d.Full() {
		return nil, fmt.Errorf("coding: batch incomplete, rank %d of %d", d.rank, d.k)
	}
	if d.decoded {
		return d.natives, nil
	}
	k := d.k
	// Back-substitution, bottom row first: row k-1 is already e_{k-1}, and
	// once the rows below row i are unit vectors, clearing each of row i's
	// entries past its pivot with the row it names leaves e_i.
	for i := k - 2; i >= 0; i-- {
		row := d.row(i)
		for j := i + 1; j < k; j++ {
			if c := row[j]; c != 0 {
				gf256.MulAddSlice(row, d.row(j), c)
			}
		}
	}
	if d.natives == nil {
		backing := make([]byte, k*d.size)
		d.natives = make([][]byte, k)
		d.coefRows = make([][]byte, k)
		for i := range d.natives {
			d.natives[i] = backing[i*d.size : (i+1)*d.size]
			d.coefRows[i] = d.row(i)[k:]
		}
	}
	pays := d.payScratch[:0]
	for _, p := range d.rows {
		pays = append(pays, p.Payload)
	}
	d.kern.SetRows(pays)
	d.payScratch = pays[:0]
	// All K natives in one strip-interleaved pass: the kernel reuses each
	// table strip across products while it is hot in L1.
	d.kern.CombineMany(d.natives, d.coefRows)
	d.decoded = true
	return d.natives, nil
}
