package coding

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// privatePool returns a handle on a free list of its own, so a test can
// count what comes back without meeting other tests' packets of the shape.
// sync.Pool promises nothing about what a Get finds: a Put parks a packet
// on the current P, which another P's Get never takes, and two GCs empty
// the pool. So for the rest of the test the process runs on one P with the
// collector off, and every packet put back is found again.
func privatePool(t *testing.T, k, size int) *Pool {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
	return &Pool{k: k, size: size, free: new(sync.Pool)}
}

// takeFree empties p's free list and returns what it held.
func takeFree(p *Pool) []*Packet {
	var out []*Packet
	for {
		q, _ := p.free.Get().(*Packet)
		if q == nil {
			return out
		}
		out = append(out, q)
	}
}

// checkRecycled fails unless want packets came back to p's free list since
// it was last emptied. Under the race detector sync.Pool drops a share of
// Puts, so there fewer may.
func checkRecycled(t *testing.T, p *Pool, want int, what string) {
	t.Helper()
	got := len(takeFree(p))
	if got > want || (got < want && !raceEnabled) {
		t.Fatalf("%s recycled %d packets, want %d", what, got, want)
	}
}

// poison overwrites every packet on p's free list with 0xA5 and puts it
// back, so a consumer that kept a recycled packet's old contents instead of
// overwriting them reads garbage.
func poison(p *Pool) {
	for _, q := range takeFree(p) {
		for i := range q.Vector {
			q.Vector[i] = 0xA5
		}
		for i := range q.Payload {
			q.Payload[i] = 0xA5
		}
		p.Put(q)
	}
}

func TestPoolShapes(t *testing.T) {
	if NewPool(4, 16) != NewPool(4, 16) {
		t.Fatal("NewPool returned two handles for one shape")
	}
	if NewPool(4, 16) == NewPool(5, 16) || NewPool(4, 16).free != NewPool(5, 16).free {
		t.Fatal("two K of one payload size do not have two handles on one free list")
	}
	if NewPool(4, 16).free == NewPool(4, 17).free {
		t.Fatal("NewPool shares a free list between payload sizes")
	}
	p := privatePool(t, 4, 16)
	q := p.Get()
	if len(q.Vector) != 4 || len(q.Payload) != 16 {
		t.Fatalf("pool packet shape %d/%d", len(q.Vector), len(q.Payload))
	}
	p.Put(q)
	checkRecycled(t, p, 1, "Put")
	// Wrong shapes are dropped, nil ignored.
	p.Put(nil)
	p.Put(&Packet{Vector: make([]byte, 3), Payload: make([]byte, 16)})
	p.Put(&Packet{Vector: make([]byte, 4), Payload: make([]byte, 17)})
	checkRecycled(t, p, 0, "a mis-shaped Put")
}

func TestShortBatchReslicesLongerBatchPackets(t *testing.T) {
	// A file's short last batch draws the packets its longer batches handed
	// back: one free list per payload size, resliced to each handle's K with
	// the payload where it was, and back again. A packet made for the short
	// batch has vector room for the long one too: the allocation's size
	// class leaves it.
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	long := privatePool(t, 32, 1500)
	short := &Pool{k: 12, size: 1500, free: long.free}
	q := long.Get()
	q.Payload[0] = 7
	long.Put(q)
	r := short.Get()
	if r != q || len(r.Vector) != 12 || len(r.Payload) != 1500 || r.Payload[0] != 7 {
		t.Fatalf("the short batch got %p (vector %d, payload %d), want the long batch's %p resliced",
			r, len(r.Vector), len(r.Payload), q)
	}
	short.Put(r)
	if s := long.Get(); s != q || len(s.Vector) != 32 {
		t.Fatal("the long batch did not get its packet back at its own K")
	}
	fresh := short.Get()
	if cap(fresh.Vector) < 32 || cap(fresh.Payload) != 1500 {
		t.Fatalf("a new K = 12 packet has vector room %d, payload cap %d", cap(fresh.Vector), cap(fresh.Payload))
	}
	long.Put(&Packet{Vector: make([]byte, 12), Payload: make([]byte, 1500)})
	checkRecycled(t, long, 0, "a Put without vector room for K = 32")
}

func TestPooledPipelineMatchesUnpooled(t *testing.T) {
	// The pooled pipeline must be byte-identical to the allocating one:
	// same rng, same packets, same decode output.
	const k, size = 8, 100
	build := func(pool bool) [][]byte {
		rng := rand.New(rand.NewSource(42))
		natives := randomNatives(rng, k, size)
		src, err := NewSource(natives, rng)
		if err != nil {
			t.Fatal(err)
		}
		fwd := NewBuffer(k, size)
		dec := NewDecoder(k, size)
		if pool {
			pl := NewPool(k, size)
			src.UsePool(pl)
			fwd.UsePool(pl)
			dec.UsePool(pl)
		}
		for !dec.Complete() {
			p := src.Next()
			if rng.Intn(2) == 0 {
				fwd.Add(p.Clone())
			}
			if r := fwd.Recode(rng); r != nil && rng.Intn(10) < 7 {
				dec.Add(r)
			}
		}
		out, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		cp := make([][]byte, len(out))
		for i := range out {
			cp[i] = append([]byte(nil), out[i]...)
		}
		return cp
	}
	a := build(false)
	b := build(true)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("pooled and unpooled pipelines diverged at native %d", i)
		}
	}
}

func TestPoisonedPoolPipelineMatchesUnpooled(t *testing.T) {
	// MORE's packet lifecycle over three batches: the source codes, a relay
	// copies what is innovative into its buffer and sends from its
	// pre-coder, the sink copies into its decoder, and every sent packet
	// goes back to the free list once "off the air". Every packet on the
	// free list is poisoned before anything can draw from it, so a consumer
	// that read a recycled buffer instead of overwriting it would diverge
	// from the unpooled run, which must match byte for byte.
	const k, size = 8, 100
	run := func(pooled bool) [][]byte {
		rng := rand.New(rand.NewSource(29))
		var pool *Pool
		if pooled {
			pool = privatePool(t, k, size)
		}
		poisoned := func() {
			if pool != nil {
				poison(pool)
			}
		}
		recv := func(p *Packet) *Packet { // a receiver's copy of a frame
			if pool == nil {
				return p.Clone()
			}
			poisoned()
			q := pool.Get()
			q.CopyFrom(p)
			return q
		}
		sent := func(p *Packet) {
			if pool != nil {
				pool.Put(p)
			}
		}
		fwd := NewBuffer(k, size)
		pre := NewPreCoder(fwd, rng)
		dec := NewDecoder(k, size)
		if pooled {
			fwd.UsePool(pool)
			dec.UsePool(pool)
		}
		var src *Source
		var out [][]byte
		for batch := 0; batch < 3; batch++ {
			natives := randomNatives(rng, k, size)
			if src == nil {
				var err error
				if src, err = NewSource(natives, rng); err != nil {
					t.Fatal(err)
				}
				if pooled {
					src.UsePool(pool)
				}
			} else if err := src.Reset(natives); err != nil {
				t.Fatal(err)
			}
			fwd.Reset()
			dec.Reset()
			for !dec.Complete() {
				poisoned()
				p := src.Next()
				if rng.Intn(2) == 0 && fwd.Innovative(p.Vector) {
					fwd.Add(recv(p))
					poisoned()
					pre.Update()
				}
				if rng.Intn(4) == 0 {
					dec.Add(recv(p))
				}
				sent(p)
				poisoned()
				if r := pre.Take(); r != nil {
					if rng.Intn(10) < 7 {
						dec.Add(recv(r))
					}
					sent(r)
				}
			}
			got, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for i := range natives {
				if !bytes.Equal(got[i], natives[i]) {
					t.Fatalf("pooled=%v batch %d: native %d corrupted", pooled, batch, i)
				}
				out = append(out, append([]byte(nil), got[i]...))
			}
		}
		return out
	}
	a := run(false)
	b := run(true)
	if len(a) != len(b) {
		t.Fatalf("unpooled run decoded %d natives, pooled %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("poisoned pooled pipeline diverged at native %d", i)
		}
	}
}

func TestBufferRecyclesOnResetAndReject(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, size = 4, 32
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	pool := privatePool(t, k, size)
	src.UsePool(pool)
	buf := NewBuffer(k, size)
	buf.UsePool(pool)
	for !buf.Full() {
		buf.Add(src.Next())
	}
	takeFree(pool)
	// Non-innovative add: packet must land back in the pool.
	buf.Add(src.Next())
	checkRecycled(t, pool, 1, "a rejected Add")
	// Reset returns all k rows.
	buf.Reset()
	checkRecycled(t, pool, k, "Reset")
	if buf.Rank() != 0 || buf.last != -1 {
		t.Fatal("Reset left state behind")
	}
}

func TestDecoderResetReuse(t *testing.T) {
	// One source and one decoder serving several batches through a pool
	// must keep decoding correctly (a MORE source and sink, and the Table
	// 4.1 benchmark pattern).
	rng := rand.New(rand.NewSource(9))
	const k, size = 8, 64
	pool := NewPool(k, size)
	src, _ := NewSource(randomNatives(rng, k, size), rng)
	src.UsePool(pool)
	dec := NewDecoder(k, size)
	dec.UsePool(pool)
	for batch := 0; batch < 5; batch++ {
		natives := randomNatives(rng, k, size)
		if err := src.Reset(natives); err != nil {
			t.Fatal(err)
		}
		dec.Reset()
		for !dec.Complete() {
			dec.Add(src.Next())
		}
		out, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for i := range natives {
			if !bytes.Equal(out[i], natives[i]) {
				t.Fatalf("batch %d: native %d corrupted", batch, i)
			}
		}
	}
}

func TestPreCoderResetRecycles(t *testing.T) {
	// A prepared transmission is a code vector and coefficients, not a
	// packet: preparing and updating it draw nothing from the free list,
	// and the buffer's Reset, which drops it, returns only the buffer's
	// rows. Take draws the one packet that goes on the air.
	rng := rand.New(rand.NewSource(11))
	const k, size = 4, 24
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	pool := privatePool(t, k, size)
	src.UsePool(pool)
	buf := NewBuffer(k, size)
	buf.UsePool(pool)
	pc := NewPreCoder(buf, rng)
	buf.Add(src.Next())
	takeFree(pool)
	spare := &Packet{Vector: make([]byte, k), Payload: make([]byte, size)}
	pool.Put(spare)
	pc.Refresh()
	pc.Update()
	if !pc.Ready() {
		t.Fatal("not ready after Refresh")
	}
	checkRecycled(t, pool, 1, "a PreCoder that prepared and updated")
	pool.Put(spare)
	if p := pc.Take(); p != spare && !raceEnabled {
		t.Fatal("Take did not draw the packet that goes on the air from the free list")
	}
	checkRecycled(t, pool, 0, "Take")
	buf.Reset()
	checkRecycled(t, pool, 1, "a Reset under a prepared transmission")
	if pc.Ready() || pc.Take() != nil {
		t.Fatal("a pre-coder still offers a transmission from a flushed buffer")
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	// Once pools are warm, Next / Innovative / Add+Decode allocate nothing.
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	const k, size = 16, 512
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	pool := NewPool(k, size)
	src.UsePool(pool)

	if n := testing.AllocsPerRun(200, func() { pool.Put(src.Next()) }); n > 0 {
		t.Errorf("Source.Next allocates %.1f/op in steady state", n)
	}

	buf := NewBuffer(k, size)
	buf.UsePool(pool)
	for !buf.Full() {
		buf.Add(src.Next())
	}
	vec := make([]byte, k)
	p := src.Next()
	copy(vec, p.Vector)
	pool.Put(p)
	if n := testing.AllocsPerRun(200, func() { buf.Innovative(vec) }); n > 0 {
		t.Errorf("Buffer.Innovative allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { pool.Put(buf.Recode(rng)) }); n > 0 {
		t.Errorf("Buffer.Recode allocates %.1f/op in steady state", n)
	}

	// A relay send: Take hands out a pending packet, the receiver copies
	// it, and it goes back; or it goes back unread. The weight table the
	// pending packets share grows once, not per packet.
	pc := NewPreCoder(buf, rng)
	rx := pool.Get()
	if n := testing.AllocsPerRun(200, func() {
		p := pc.Take()
		rx.CopyFrom(p)
		pool.Put(p)
		pool.Put(pc.Take())
	}); n > 0 {
		t.Errorf("PreCoder.Take and a read allocate %.1f/op in steady state", n)
	}
	pool.Put(rx)

	pkts := make([]*Packet, k+4)
	for i := range pkts {
		pkts[i] = src.Next()
	}
	dec := NewDecoder(k, size)
	dec.UsePool(pool)
	decodeBatch := func() {
		dec.Reset()
		for i := 0; !dec.Complete() && i < len(pkts); i++ {
			q := pool.Get()
			q.CopyFrom(pkts[i])
			dec.Add(q)
		}
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	decodeBatch() // warm the decoder's lazily allocated buffers
	if n := testing.AllocsPerRun(50, decodeBatch); n > 0 {
		t.Errorf("decode batch allocates %.1f/op in steady state", n)
	}
}

func TestUsePoolShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	src, _ := NewSource(randomNatives(rng, 4, 8), rng)
	buf := NewBuffer(4, 8)
	dec := NewDecoder(4, 8)
	bad := NewPool(5, 8)
	for name, f := range map[string]func(){
		"source":  func() { src.UsePool(bad) },
		"buffer":  func() { buf.UsePool(bad) },
		"decoder": func() { dec.UsePool(bad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.UsePool mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReleasedBufferIsPoisoned(t *testing.T) {
	// PutBuffer hands a buffer's packets back to the free list and poisons
	// the buffer — no slots, rank −1, transform rows 0xA5 — so a holder
	// that kept it faults on its next use, and a second release panics.
	// GetBuffer hands it out again empty, coding as a new buffer does.
	rng := rand.New(rand.NewSource(17))
	const k, size = 4, 24
	pool := privatePool(t, k, size)
	src, _ := NewSource(randomNatives(rng, k, size), rng)
	fill := func(b *Buffer) []*Packet {
		var fed []*Packet
		for !b.Full() {
			p := src.Next()
			fed = append(fed, p.Clone())
			b.Add(p)
		}
		return fed
	}
	buf := pool.GetBuffer()
	fill(buf)
	takeFree(pool)
	pool.PutBuffer(buf)
	checkRecycled(t, pool, k, "PutBuffer")
	if buf.Rank() != -1 || len(buf.rows) != 0 || bytes.Count(buf.m, []byte{0xA5}) != len(buf.m) {
		t.Fatalf("released buffer: rank %d, %d slots, rows %x", buf.Rank(), len(buf.rows), buf.m)
	}
	vec := make([]byte, k)
	vec[0] = 1
	for name, use := range map[string]func(){
		"Innovative":    func() { buf.Innovative(vec) },
		"Add":           func() { buf.Add(&Packet{Vector: vec, Payload: make([]byte, size)}) },
		"Recode":        func() { buf.Recode(rng) },
		"a second Put":  func() { pool.PutBuffer(buf) },
		"a foreign Put": func() { pool.PutBuffer(NewBuffer(k, size)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released buffer did not fault", name)
				}
			}()
			use()
		}()
	}
	again := pool.GetBuffer()
	if again != buf && !raceEnabled {
		t.Fatal("GetBuffer did not reuse the released buffer")
	}
	if again.Rank() != 0 || !again.Innovative(vec) {
		t.Fatal("a reused buffer is not empty")
	}
	fresh := NewBuffer(k, size)
	for _, p := range fill(again) {
		fresh.Add(p)
	}
	seed := rng.Int63()
	got, want := again.Recode(rand.New(rand.NewSource(seed))), fresh.Recode(rand.New(rand.NewSource(seed)))
	if !bytes.Equal(got.Vector, want.Vector) || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatal("a reused buffer codes differently from a new one")
	}
}

// TestUnreadPacketIsNeverCombined counts combines: of twelve packets Take
// hands out, pending on one buffer at once, the seven put back unread leave
// their payload bytes as they were — not at Put, not at the buffer's next
// Reset, not at its release — and the five read are combined once each, to
// the bytes their code vectors name, whether read before the Reset or by it.
func TestUnreadPacketIsNeverCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const k, size = 6, 40
	natives := randomNatives(rng, k, size)
	src, _ := NewSource(natives, rng)
	pool := privatePool(t, k, size)
	buf := pool.GetBuffer()
	for !buf.Full() {
		buf.Add(src.Next())
	}
	pc := NewPreCoder(buf, rng)
	var taken, parked [][]byte
	var pkts []*Packet
	for range 12 {
		p := pc.Take()
		if p.Payload != nil || len(p.parked) != size {
			t.Fatalf("Take handed out payload %v, parked %d B: not pending", p.Payload, len(p.parked))
		}
		for i := range p.parked {
			p.parked[i] = 0xA5
		}
		pkts = append(pkts, p)
		taken = append(taken, append([]byte(nil), p.Vector...))
		parked = append(parked, p.parked)
	}
	// The receiver's copy is its own, so a read never lands in a packet
	// put back earlier.
	rx := &Packet{Vector: make([]byte, k), Payload: make([]byte, size)}
	read := map[int]bool{1: true, 4: true, 9: true} // read now; 6 and 11 by Reset
	for i, p := range pkts {
		switch {
		case read[i]:
			rx.CopyFrom(p)
		case i != 6 && i != 11:
			pool.Put(p)
		}
	}
	if len(buf.pending) != 2 {
		t.Fatalf("%d packets pending after three reads and seven puts, want 2", len(buf.pending))
	}
	pool.PutBuffer(buf)
	read[6], read[11] = true, true
	combined := 0
	for i, pay := range parked {
		want := make([]byte, size)
		for j, c := range taken[i] {
			mulAddSuffix(want, natives[j], c, 0)
		}
		switch untouched := bytes.Count(pay, []byte{0xA5}) == size; {
		case read[i] && !bytes.Equal(pay, want):
			t.Errorf("packet %d was read but holds the wrong payload", i)
		case !read[i] && !untouched:
			t.Errorf("packet %d went back unread but its payload was combined", i)
		}
		if !bytes.Equal(pay, want) {
			continue
		}
		combined++
	}
	if combined != len(read) {
		t.Fatalf("%d payloads combined, want the %d read", combined, len(read))
	}
}
