// Package coding implements MORE's intra-flow random linear network coding
// (Chapter 3 of the thesis).
//
// A batch consists of K native packets p_1 … p_K of equal size. Every data
// transmission carries a coded packet p' = Σ c_i p_i together with its code
// vector c = (c_1, …, c_K) over GF(2^8). The package provides:
//
//   - Packet: a coded packet (code vector + payload).
//   - Source: codes random combinations of the K native packets (§3.1.1).
//   - Buffer: a forwarder/destination batch buffer that keeps the code
//     vectors of stored packets in row-echelon form and admits only
//     innovative packets using Algorithm 2 (§3.2.3(a),(b)).
//   - PreCoder: the pre-computed next transmission, updated incrementally as
//     innovative packets arrive (§3.2.3(c)).
//   - Decoder: innovativeness tracking over code vectors as packets arrive;
//     once K innovative packets are stored the natives are recovered by
//     inverting the K×K coefficient matrix and running K word-wise
//     multi-row combines over the stored payloads (§3.1.3).
//   - Pool: a handle on the process-wide, GC-aware free list of packets of
//     one shape, shared by every node; with pools attached the whole
//     pipeline is allocation-free in steady state, and its output does not
//     depend on which buffer a Get returns (see pool.go for the ownership
//     rules).
//
// The byte crunching runs on the active gf256 kernel arm (GFNI, PSHUFB or
// the portable word-wise form): multi-row combines — coding at the source,
// recoding at forwarders, decoding at the destination — through
// gf256.Kernel, and single-row steps — echelon elimination, pre-coder
// updates — through gf256.MulAddSlice/ScaleSlice.
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
type Packet struct {
	// Vector has length K (the batch size). Vector[i] is the coefficient
	// of native packet i.
	Vector []byte
	// Payload is the coded data, the same length for every packet of a
	// batch.
	Payload []byte
}

// Clone returns a deep copy of p.
func (p *Packet) Clone() *Packet {
	q := &Packet{
		Vector:  make([]byte, len(p.Vector)),
		Payload: make([]byte, len(p.Payload)),
	}
	copy(q.Vector, p.Vector)
	copy(q.Payload, p.Payload)
	return q
}

// CopyFrom overwrites p with q's contents. The shapes must match; it is the
// pool-friendly alternative to Clone.
func (p *Packet) CopyFrom(q *Packet) {
	if len(p.Vector) != len(q.Vector) || len(p.Payload) != len(q.Payload) {
		panic("coding: CopyFrom shape mismatch")
	}
	copy(p.Vector, q.Vector)
	copy(p.Payload, q.Payload)
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

// Buffer is the per-batch store of innovative packets kept by forwarders and
// destinations. Code vectors are maintained in row-echelon form: row i, if
// present, has its first nonzero element at index i and that element is
// normalized to 1 (Algorithm 2). Payloads receive the same row operations so
// each stored row remains a valid coded packet.
type Buffer struct {
	k    int
	size int
	rows []*Packet // rows[i] == nil if the slot is empty
	rank int
	last *Packet // most recently admitted row
	pool *Pool   // optional; recycles rejected and flushed packets

	// Reusable scratch so the steady state allocates nothing.
	innovScratch []byte
	coefScratch  []byte
	payScratch   [][]byte
	kern         *gf256.Kernel
}

// NewBuffer creates an empty buffer for batch size k and payload size.
func NewBuffer(k, size int) *Buffer {
	return &Buffer{
		k:            k,
		size:         size,
		rows:         make([]*Packet, k),
		innovScratch: make([]byte, k),
		coefScratch:  make([]byte, k),
		payScratch:   make([][]byte, 0, k),
		kern:         gf256.NewKernel(),
	}
}

// UsePool attaches a packet pool: Recode draws from it, and Add and Reset
// recycle rejected or flushed packets into it. The pool's shape must match
// the buffer's.
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

// Innovative reports whether a packet with the given code vector would be
// innovative (linearly independent of the stored packets) without modifying
// the buffer. It runs the elimination on a scratch copy of the vector only —
// checking for innovativeness never touches payload bytes (§3.2.3(b)).
func (b *Buffer) Innovative(vector []byte) bool {
	if len(vector) != b.k {
		return false
	}
	u := b.innovScratch
	copy(u, vector)
	for i := 0; i < b.k; i++ {
		if u[i] == 0 {
			continue
		}
		if b.rows[i] == nil {
			return true
		}
		// u -= rows[i]*u[i]. Both are zero before i, so the suffix would
		// suffice — but at K = 32 the whole vector is one SIMD block and
		// every proper suffix falls back to the table loop.
		gf256.MulAddSlice(u, b.rows[i].Vector, u[i])
	}
	return false
}

// Add runs Algorithm 2: it reduces the packet against the stored rows and,
// if the result is nonzero, admits it into the empty slot it lands in and
// returns true (rank increased). Non-innovative packets are discarded and
// Add returns false. The packet is consumed either way: Add may modify it
// in place, and with a pool attached a rejected packet is recycled.
func (b *Buffer) Add(p *Packet) bool {
	if len(p.Vector) != b.k || len(p.Payload) != b.size {
		return false
	}
	for i := 0; i < b.k; i++ {
		c := p.Vector[i]
		if c == 0 {
			continue
		}
		row := b.rows[i]
		if row == nil {
			// Admit: normalize the leading coefficient to 1.
			inv := gf256.Inv(c)
			gf256.ScaleSlice(p.Vector, inv)
			gf256.ScaleSlice(p.Payload, inv)
			b.rows[i] = p
			b.last = p
			b.rank++
			return true
		}
		// p -= row * c (row's leading element is 1 at index i; vector
		// prefixes before i are zero on both sides, so eliminating on the
		// whole vector, as Innovative does, changes no byte).
		gf256.MulAddSlice(p.Vector, row.Vector, c)
		gf256.MulAddSlice(p.Payload, row.Payload, c)
	}
	if b.pool != nil {
		b.pool.Put(p)
	}
	return false
}

// LastAdded returns the most recently admitted row (nil if none since the
// last Reset). Pre-coding folds exactly this row into the prepared packet,
// so exposing it avoids materializing Rows() per reception.
func (b *Buffer) LastAdded() *Packet { return b.last }

// Rows returns the stored innovative packets in echelon order. The returned
// slice is freshly allocated but the packets are the buffer's own; callers
// must not mutate them.
func (b *Buffer) Rows() []*Packet {
	out := make([]*Packet, 0, b.rank)
	for _, r := range b.rows {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Recode produces a fresh random linear combination of the stored innovative
// packets (what a forwarder transmits, §3.1.2). It returns nil if the buffer
// is empty. A linear combination of coded packets is itself a coded packet
// whose vector is expressed in terms of the natives. The payload combine
// runs on the word-wise kernel in table-free mode (the stored rows change
// with every reception, so there is nothing to precompute).
func (b *Buffer) Recode(rng *rand.Rand) *Packet {
	if b.rank == 0 {
		return nil
	}
	var p *Packet
	if b.pool != nil {
		p = b.pool.Get()
	} else {
		p = &Packet{Vector: make([]byte, b.k), Payload: make([]byte, b.size)}
	}
	pays := b.payScratch[:0]
	rows := b.rows
	for _, row := range rows {
		if row != nil {
			pays = append(pays, row.Payload)
		}
	}
	coefs := b.coefScratch[:len(pays)]
	rng.Read(coefs)
	allZero := true
	for _, c := range coefs {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		// All coefficients drew zero; include the last row with a nonzero
		// coefficient so the transmission is never vacuous.
		coefs[len(coefs)-1] = randNonZero(rng)
	}
	clear(p.Vector)
	j := 0
	for _, row := range rows {
		if row == nil {
			continue
		}
		gf256.MulAddSlice(p.Vector, row.Vector, coefs[j])
		j++
	}
	b.kern.CombineInto(p.Payload, pays, coefs)
	b.payScratch = pays[:0]
	return p
}

// Reset drops all stored packets (batch flush: overheard ACK or newer batch,
// §3.2.2), recycling them when a pool is attached.
func (b *Buffer) Reset() {
	for i, row := range b.rows {
		if row != nil && b.pool != nil {
			b.pool.Put(row)
		}
		b.rows[i] = nil
	}
	b.rank = 0
	b.last = nil
}

// PreCoder maintains one pre-computed coded packet so that a transmission is
// ready the instant the MAC offers an opportunity (§3.2.3(c)). After handing
// a packet out, call Refresh to precompute the next one; when an innovative
// packet arrives in between, call Update to fold it in with a fresh random
// coefficient, so the prepared packet reflects everything the node knows.
type PreCoder struct {
	buf  *Buffer
	rng  *rand.Rand
	next *Packet
}

// NewPreCoder creates a PreCoder over the given buffer.
func NewPreCoder(buf *Buffer, rng *rand.Rand) *PreCoder {
	return &PreCoder{buf: buf, rng: rng}
}

// Ready reports whether a pre-coded packet is prepared.
func (pc *PreCoder) Ready() bool { return pc.next != nil }

// Refresh precomputes the next transmission from the current buffer
// contents, recycling any packet already prepared. It is a no-op if the
// buffer is empty.
func (pc *PreCoder) Refresh() {
	if pc.next != nil && pc.buf.pool != nil {
		pc.buf.pool.Put(pc.next)
	}
	pc.next = pc.buf.Recode(pc.rng)
}

// Update folds a newly arrived innovative packet into the prepared
// transmission: next += r * p for a random nonzero r. If nothing is
// prepared yet it performs a Refresh instead. p must already have been
// admitted to the buffer (so sizes agree).
func (pc *PreCoder) Update(p *Packet) {
	if pc.next == nil {
		pc.Refresh()
		return
	}
	r := randNonZero(pc.rng)
	gf256.MulAddSlice(pc.next.Vector, p.Vector, r)
	gf256.MulAddSlice(pc.next.Payload, p.Payload, r)
}

// Take hands out the prepared packet (or codes one on the spot if none is
// prepared — the "naive" path pre-coding exists to avoid) and immediately
// prepares the next. Returns nil if the buffer is empty.
func (pc *PreCoder) Take() *Packet {
	p := pc.next
	pc.next = nil // ownership passes to the caller before Refresh recycles
	if p == nil {
		p = pc.buf.Recode(pc.rng)
		if p == nil {
			return nil
		}
	}
	pc.Refresh()
	return p
}

// Reset discards any prepared packet (used when the batch is flushed),
// recycling it when the buffer has a pool.
func (pc *PreCoder) Reset() {
	if pc.next != nil && pc.buf.pool != nil {
		pc.buf.pool.Put(pc.next)
	}
	pc.next = nil
}

// Decoder recovers the K native packets at the destination. As packets
// arrive it runs the innovativeness elimination over code vectors only —
// K-byte rows, a few hundred byte operations — and stores innovative
// packets untouched. Once K innovative packets are in, Decode inverts the
// K×K matrix of their code vectors (cheap: vectors, not payloads) and
// recovers each native as one word-wise multi-row combine of the stored
// payloads. Deferring all payload arithmetic to the batched combine is what
// lets decoding ride the same kernel as source coding (§3.1.3 budgets ~2NS
// multiplications per packet; the kernel does the equivalent work
// word-wide).
type Decoder struct {
	k, size int
	rank    int
	rows    []*Packet // innovative originals, arrival order
	ech     [][]byte  // ech[i]: reduced vector with leading 1 at i, or nil
	echBuf  []byte
	scratch []byte
	pool    *Pool
	kern    *gf256.Kernel

	decoded    bool
	natives    [][]byte // decode output, reused across Reset
	inv        []byte   // k×2k Gauss–Jordan scratch
	payScratch [][]byte
	coefRows   [][]byte
}

// NewDecoder creates a decoder for batch size k and payload size.
func NewDecoder(k, size int) *Decoder {
	return &Decoder{
		k:          k,
		size:       size,
		rows:       make([]*Packet, 0, k),
		ech:        make([][]byte, k),
		echBuf:     make([]byte, k*k),
		scratch:    make([]byte, k),
		kern:       gf256.NewKernel(),
		payScratch: make([][]byte, 0, k),
	}
}

// UsePool attaches a packet pool: Add recycles non-innovative packets and
// Reset recycles the stored batch. The pool's shape must match.
func (d *Decoder) UsePool(p *Pool) {
	if p.K() != d.k || p.PayloadSize() != d.size {
		panic("coding: Decoder.UsePool shape mismatch")
	}
	d.pool = p
}

// Rank returns the number of innovative packets received.
func (d *Decoder) Rank() int { return d.rank }

// Add feeds a received packet into the decoder, returning true if it was
// innovative. The decoder takes ownership of the packet either way; with a
// pool attached, rejected packets are recycled.
func (d *Decoder) Add(p *Packet) bool {
	if len(p.Vector) != d.k || len(p.Payload) != d.size {
		return false
	}
	u := d.scratch
	copy(u, p.Vector)
	for i := 0; i < d.k; i++ {
		c := u[i]
		if c == 0 {
			continue
		}
		if d.ech[i] == nil {
			// Admit: normalize the reduced vector and keep the original.
			gf256.ScaleSlice(u[i:], gf256.Inv(c))
			row := d.echBuf[i*d.k : (i+1)*d.k]
			copy(row, u)
			d.ech[i] = row
			d.rows = append(d.rows, p)
			d.rank++
			return true
		}
		// Zeros before i on both sides; whole vectors for the reason
		// Buffer.Innovative gives.
		gf256.MulAddSlice(u, d.ech[i], c)
	}
	if d.pool != nil {
		d.pool.Put(p)
	}
	return false
}

// Complete reports whether enough innovative packets have arrived to decode
// the whole batch.
func (d *Decoder) Complete() bool { return d.rank == d.k }

// Reset flushes the decoder for a new batch, recycling stored packets into
// the pool. The decode output buffers are retained for reuse.
func (d *Decoder) Reset() {
	for i, p := range d.rows {
		if d.pool != nil {
			d.pool.Put(p)
		}
		d.rows[i] = nil
	}
	d.rows = d.rows[:0]
	for i := range d.ech {
		d.ech[i] = nil
	}
	d.rank = 0
	d.decoded = false
}

// Decode returns the K native payloads in order. It errors if the batch is
// not yet complete. It is idempotent; the returned slices are owned by the
// decoder and remain valid until the next Reset.
func (d *Decoder) Decode() ([][]byte, error) {
	if d.rank != d.k {
		return nil, fmt.Errorf("coding: batch incomplete, rank %d of %d", d.rank, d.k)
	}
	if d.decoded {
		return d.natives, nil
	}
	k := d.k
	// Invert the coefficient matrix C (rows = stored code vectors) by
	// Gauss–Jordan on [C | I]. The batch has full rank by construction, so
	// a pivot always exists.
	if d.inv == nil {
		d.inv = make([]byte, k*2*k)
	}
	m := d.inv
	w := 2 * k
	for r := 0; r < k; r++ {
		row := m[r*w : (r+1)*w]
		clear(row)
		copy(row, d.rows[r].Vector)
		row[k+r] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if m[r*w+col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, errors.New("coding: internal rank error")
		}
		if pivot != col {
			pr := m[pivot*w : (pivot+1)*w]
			cr := m[col*w : (col+1)*w]
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
		}
		// Columns before col are already eliminated in every row, so all
		// row operations can start at col.
		cr := m[col*w : (col+1)*w]
		gf256.ScaleSlice(cr[col:], gf256.Inv(cr[col]))
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			if c := m[r*w+col]; c != 0 {
				gf256.MulAddSlice(m[r*w+col:(r+1)*w], cr[col:], c)
			}
		}
	}
	// native_i = Σ_j inv[i][j] · payload_j: K multi-row combines over the
	// stored payloads, sharing one set of kernel tables.
	if d.natives == nil {
		backing := make([]byte, k*d.size)
		d.natives = make([][]byte, k)
		for i := range d.natives {
			d.natives[i] = backing[i*d.size : (i+1)*d.size]
		}
	}
	pays := d.payScratch[:0]
	for _, p := range d.rows {
		pays = append(pays, p.Payload)
	}
	d.kern.SetRows(pays)
	d.payScratch = pays[:0]
	if d.coefRows == nil {
		d.coefRows = make([][]byte, k)
	}
	for i := 0; i < k; i++ {
		d.coefRows[i] = m[i*w+k : (i+1)*w]
	}
	// All K natives in one strip-interleaved pass: the kernel reuses each
	// table strip across products while it is hot in L1.
	d.kern.CombineMany(d.natives, d.coefRows)
	d.decoded = true
	return d.natives, nil
}
