package coding

import (
	"slices"
	"sync"
)

// Pool is a handle on the free list of Packets of one shape (K, payload
// size): the steady-state packet pipeline — source coding, buffering,
// recoding, decoding — allocates nothing once the free list is warm. There
// is one free list per payload size in the process, shared by every handle
// of that size: every node of a simulation, every simulation the experiment
// workers run at once, and every K. It is a sync.Pool, so it is safe for
// concurrent use and the garbage collector may empty it; a packet a node
// released is reused by the next node that needs one of its payload size
// instead of dying with the batch or the relay that held it.
//
// A packet's code vector sits behind its payload with room for at least the
// K it was made for, so a handle takes any packet from the list whose vector
// has room for its K and reslices it: a file's short last batch (K = 12
// after batches of 32) codes into the packets its longer batches handed
// back, and the list's high-water mark is the most packets the process ever
// holds at once, not that summed over the shapes it has seen.
//
// Ownership rules: Get transfers ownership to the caller; Put transfers it
// back. A component holding a pool (Buffer, Source, Decoder) recycles the
// packets it consumes — in particular Buffer.Add (a Decoder's too) recycles
// rejected (non-innovative) packets, and Reset recycles stored ones — so a
// caller that hands a packet to Add must not touch it afterwards. A packet
// PreCoder.Take handed out stays pending on its buffer until it is read or
// put back; whoever holds it may Put it unread, and the buffer's Reset
// combines what is still pending before its rows go. The
// contents of a packet from Get are undefined and every caller overwrites
// all of them, so no output depends on which packet comes back, or whether
// one does.
//
// A Buffer is recycled the same way, per shape: GetBuffer hands one out
// empty, with the pool attached, and PutBuffer takes it back, flushed and
// poisoned, so a holder that kept its pointer faults on its next use.
type Pool struct {
	k, size int
	free    *sync.Pool
	bufs    sync.Pool // *Buffer of this shape
}

type shape struct{ k, size int }

var (
	shapesMu sync.Mutex
	shapes   = map[shape]*Pool{}
	lists    = map[int]*sync.Pool{} // by payload size
)

// NewPool returns the handle on the free list for packets with K-length
// vectors and the given payload size.
func NewPool(k, size int) *Pool {
	shapesMu.Lock()
	defer shapesMu.Unlock()
	p := shapes[shape{k, size}]
	if p == nil {
		free := lists[size]
		if free == nil {
			free = new(sync.Pool)
			lists[size] = free
		}
		p = &Pool{k: k, size: size, free: free}
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
	if q, ok := p.free.Get().(*Packet); ok && cap(q.Vector) >= p.k {
		q.Vector = q.Vector[:p.k]
		return q
	}
	// A packet made for a smaller K, if one came back, is left to the
	// collector. A new one is one backing array for payload and vector: two
	// objects per packet, not three. The array's capacity is rounded up to
	// its allocation size class, which costs nothing and is vector room for
	// a larger K; the payload's cap stops at its length, so nothing written
	// through it reaches the vector.
	n := p.size + p.k
	buf := slices.Grow([]byte(nil), n)[:n]
	return &Packet{Payload: buf[:p.size:p.size], Vector: buf[p.size:n]}
}

// Put returns a packet to the free list. A pending packet (PreCoder.Take)
// goes back unread: its payload is never combined. A packet of another
// payload size, or whose vector has no room for the pool's K, is dropped (it
// would corrupt later Gets); nil is ignored.
func (p *Pool) Put(q *Packet) {
	if q == nil {
		return
	}
	if q.src != nil {
		q.src.unpend(q)
	}
	if len(q.Payload) == p.size && cap(q.Vector) >= p.k {
		p.free.Put(q)
	}
}

// GetBuffer returns an empty Buffer of the pool's shape with the pool
// attached, reusing one PutBuffer took back if there is one.
func (p *Pool) GetBuffer() *Buffer {
	if b, ok := p.bufs.Get().(*Buffer); ok {
		b.rows = b.rows[:p.k]
		b.rank = 0
		return b
	}
	b := NewBuffer(p.k, p.size)
	b.pool = p
	return b
}

// PutBuffer takes back a buffer with this pool attached: its packets go back
// onto the free list, packets still pending on it combined first, and it is
// poisoned — no slots, rank −1, rows 0xA5 — until a GetBuffer hands it out
// again, so any use of a released buffer faults. Releasing a buffer twice, or one attached to
// another pool, panics.
func (p *Pool) PutBuffer(b *Buffer) {
	if b.pool != p || b.rank < 0 {
		panic("coding: PutBuffer of a buffer not held from this pool")
	}
	b.Reset()
	b.rows = b.rows[:0]
	b.rank = -1
	for i := range b.m {
		b.m[i] = 0xA5
	}
	p.bufs.Put(b)
}
