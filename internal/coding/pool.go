package coding

import "sync"

// Pool is a handle on the free list of Packets of one shape (K, payload
// size): the steady-state packet pipeline — source coding, buffering,
// recoding, decoding — allocates nothing once the free list is warm. There
// is one free list per shape in the process, shared by every handle of that
// shape: every node of a simulation, and every simulation the experiment
// workers run at once. It is a sync.Pool, so it is safe for concurrent use
// and the garbage collector may empty it; a packet a node released is
// reused by the next node that needs one of its shape instead of dying with
// the batch or the relay that held it.
//
// Ownership rules: Get transfers ownership to the caller; Put transfers it
// back. A component holding a pool (Buffer, Source, Decoder) recycles the
// packets it consumes — in particular Buffer.Add and Decoder.Add recycle
// rejected (non-innovative) packets, and Reset recycles stored ones — so a
// caller that hands a packet to Add must not touch it afterwards. The
// contents of a packet from Get are undefined and every caller overwrites
// all of them, so no output depends on which packet comes back, or whether
// one does.
type Pool struct {
	k, size int
	free    *sync.Pool
}

type shape struct{ k, size int }

var (
	shapesMu sync.Mutex
	shapes   = map[shape]*Pool{}
)

// NewPool returns the handle on the free list for packets with K-length
// vectors and the given payload size.
func NewPool(k, size int) *Pool {
	shapesMu.Lock()
	defer shapesMu.Unlock()
	p := shapes[shape{k, size}]
	if p == nil {
		p = &Pool{k: k, size: size, free: new(sync.Pool)}
		shapes[shape{k, size}] = p
	}
	return p
}

// K returns the pool's batch size.
func (p *Pool) K() int { return p.k }

// PayloadSize returns the pool's payload size.
func (p *Pool) PayloadSize() int { return p.size }

// Get returns a packet with the pool's shape. Its contents are undefined;
// callers overwrite both vector and payload.
func (p *Pool) Get() *Packet {
	if q, ok := p.free.Get().(*Packet); ok {
		return q
	}
	// One backing array for vector and payload: two objects per packet, not
	// three. The vector's cap stops at k, so an append to it cannot run into
	// the payload.
	buf := make([]byte, p.k+p.size)
	return &Packet{Vector: buf[:p.k:p.k], Payload: buf[p.k:]}
}

// Put returns a packet to the free list. Packets of the wrong shape are
// dropped (they would corrupt later Gets); nil is ignored.
func (p *Pool) Put(q *Packet) {
	if p.Fits(q) {
		p.free.Put(q)
	}
}

// Fits reports whether a packet has this pool's shape.
func (p *Pool) Fits(q *Packet) bool {
	return q != nil && len(q.Vector) == p.k && len(q.Payload) == p.size
}
