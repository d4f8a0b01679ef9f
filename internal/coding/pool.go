package coding

// Pool is a freelist of Packets for one batch shape (K, payload size): the
// steady-state packet pipeline — source coding, buffering, recoding,
// decoding — allocates nothing once the pool is warm. Pools are deliberately
// simple LIFO freelists, not sync.Pools: a flow's coding pipeline runs on a
// single goroutine (each simulation, and each experiment worker, owns its
// flows outright), so no locking is needed and reuse stays deterministic.
//
// Ownership rules: Get transfers ownership to the caller; Put transfers it
// back. A component holding a pool (Buffer, Source, Decoder) recycles the
// packets it consumes — in particular Buffer.Add and Decoder.Add recycle
// rejected (non-innovative) packets, and Reset recycles stored ones — so a
// caller that hands a packet to Add must not touch it afterwards.
type Pool struct {
	k, size int
	free    []*Packet
}

// NewPool creates a pool for packets with K-length vectors and the given
// payload size.
func NewPool(k, size int) *Pool {
	return &Pool{k: k, size: size}
}

// K returns the pool's batch size.
func (p *Pool) K() int { return p.k }

// PayloadSize returns the pool's payload size.
func (p *Pool) PayloadSize() int { return p.size }

// Get returns a packet with the pool's shape. Its contents are undefined;
// callers overwrite both vector and payload.
func (p *Pool) Get() *Packet {
	if n := len(p.free); n > 0 {
		q := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return q
	}
	return &Packet{
		Vector:  make([]byte, p.k),
		Payload: make([]byte, p.size),
	}
}

// Put returns a packet to the freelist. Packets of the wrong shape are
// dropped (they would corrupt later Gets); nil is ignored.
func (p *Pool) Put(q *Packet) {
	if q == nil || len(q.Vector) != p.k || len(q.Payload) != p.size {
		return
	}
	p.free = append(p.free, q)
}

// Fits reports whether a packet has this pool's shape.
func (p *Pool) Fits(q *Packet) bool {
	return q != nil && len(q.Vector) == p.k && len(q.Payload) == p.size
}
