package coding

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gf256"
)

// eagerBuffer and eagerPreCoder are Buffer and PreCoder as they were before
// payload arithmetic was deferred, without their pools: every admitted row
// carries its echelon payload, Add eliminates payloads along with vectors,
// and the pre-coder keeps a whole coded packet, payload included, up to
// date on every arrival. They are the oracle of
// TestBufferMatchesEagerReference: by linearity the deferred form must hand
// out byte-identical packets after the same rng draws.
type eagerBuffer struct {
	k, size int
	rows    []*Packet // rows[i]: echelon row with leading 1 at i, payload transformed alike
	rank    int
	last    *Packet
	scratch []byte
	kern    *gf256.Kernel
}

func newEagerBuffer(k, size int) *eagerBuffer {
	return &eagerBuffer{k: k, size: size, rows: make([]*Packet, k), scratch: make([]byte, k), kern: gf256.NewKernel()}
}

func (b *eagerBuffer) Innovative(vector []byte) bool {
	if len(vector) != b.k {
		return false
	}
	u := b.scratch
	copy(u, vector)
	for i := 0; i < b.k; i++ {
		if u[i] == 0 {
			continue
		}
		if b.rows[i] == nil {
			return true
		}
		gf256.MulAddSlice(u, b.rows[i].Vector, u[i])
	}
	return false
}

func (b *eagerBuffer) Add(p *Packet) bool {
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
			inv := gf256.Inv(c)
			gf256.ScaleSlice(p.Vector, inv)
			gf256.ScaleSlice(p.Payload, inv)
			b.rows[i] = p
			b.last = p
			b.rank++
			return true
		}
		gf256.MulAddSlice(p.Vector, row.Vector, c)
		gf256.MulAddSlice(p.Payload, row.Payload, c)
	}
	return false
}

func (b *eagerBuffer) Recode(rng *rand.Rand) *Packet {
	if b.rank == 0 {
		return nil
	}
	p := &Packet{Vector: make([]byte, b.k), Payload: make([]byte, b.size)}
	var pays [][]byte
	for _, row := range b.rows {
		if row != nil {
			pays = append(pays, row.Payload)
		}
	}
	coefs := make([]byte, len(pays))
	rng.Read(coefs)
	allZero := true
	for _, c := range coefs {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		coefs[len(coefs)-1] = randNonZero(rng)
	}
	j := 0
	for _, row := range b.rows {
		if row == nil {
			continue
		}
		gf256.MulAddSlice(p.Vector, row.Vector, coefs[j])
		j++
	}
	b.kern.CombineInto(p.Payload, pays, coefs)
	return p
}

func (b *eagerBuffer) Reset() {
	clear(b.rows)
	b.rank = 0
	b.last = nil
}

type eagerPreCoder struct {
	buf  *eagerBuffer
	rng  *rand.Rand
	next *Packet
}

func (pc *eagerPreCoder) Ready() bool { return pc.next != nil }

func (pc *eagerPreCoder) Refresh() { pc.next = pc.buf.Recode(pc.rng) }

// Update folds the buffer's last admitted row into the prepared packet,
// payload and all.
func (pc *eagerPreCoder) Update() {
	if pc.next == nil {
		pc.Refresh()
		return
	}
	r := randNonZero(pc.rng)
	gf256.MulAddSlice(pc.next.Vector, pc.buf.last.Vector, r)
	gf256.MulAddSlice(pc.next.Payload, pc.buf.last.Payload, r)
}

func (pc *eagerPreCoder) Take() *Packet {
	p := pc.next
	pc.next = nil
	if p == nil {
		p = pc.buf.Recode(pc.rng)
		if p == nil {
			return nil
		}
	}
	pc.Refresh()
	return p
}

func (pc *eagerPreCoder) Reset() { pc.next = nil }

// forEachArm runs f as one subtest per GF(256) arm this machine offers,
// with that arm active, and restores the selection afterwards.
func forEachArm(t *testing.T, f func(t *testing.T)) {
	prev := gf256.ActiveKernel()
	t.Cleanup(func() {
		if err := gf256.SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	})
	for _, arm := range gf256.AvailableKernels() {
		if err := gf256.SetKernel(arm); err != nil {
			t.Fatal(err)
		}
		t.Run(arm, f)
	}
}

// samePacket fails unless the deferred and eager forms handed out the same
// packet, byte for byte, or both none.
func samePacket(t *testing.T, what string, got, want *Packet) {
	t.Helper()
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%s: deferred form returned %v packet, eager form %v", what, got != nil, want != nil)
	case got == nil:
	case !bytes.Equal(got.Vector, want.Vector):
		t.Fatalf("%s: code vectors differ:\n%x\n%x", what, got.Vector, want.Vector)
	case !bytes.Equal(got.Payload, want.Payload):
		t.Fatalf("%s: payloads differ", what)
	}
}

// TestBufferMatchesEagerReference drives Buffer and PreCoder and their
// eager forms through the same seeded random sequences of Add, Innovative,
// Update, Refresh, Take, Recode and Reset — K from 1 to 40, payload lengths
// that are not multiples of 32, on every GF(256) arm — and requires every
// verdict, rank and packet handed out to be identical, and the two rngs to
// be in the same state at the end: the deferred form draws what the eager
// one drew, in the same order. A sequence fills its batch about twice
// between Resets. The pooled half recycles every packet it hands out
// through a poisoned free list, and its Reset releases the buffer to the
// pool and takes it back, rows poisoned.
//
// A packet Take hands out stays pending until a random later step reads it
// through CopyFrom or Clone, as a receiver does, or puts it back unread:
// reads land after further Adds and Updates, after Resets, and after other
// pending packets left the buffer's weight table, and each must still
// match the eager packet taken at the same step.
func TestBufferMatchesEagerReference(t *testing.T) {
	sizes := []int{1, 7, 31, 33, 47, 100, 161}
	forEachArm(t, func(t *testing.T) {
		afterAdd, afterReset := 0, 0
		for k := 1; k <= 40; k++ {
			for _, pooled := range []bool{false, true} {
				seed := int64(2 * k)
				if pooled {
					seed++
				}
				ops := rand.New(rand.NewSource(seed))
				size := sizes[ops.Intn(len(sizes))]
				natives := randomNatives(ops, k, size)
				rngD, rngE := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))

				var pool *Pool
				buf := NewBuffer(k, size)
				if pooled {
					pool = &Pool{k: k, size: size, free: new(sync.Pool)}
					buf = pool.GetBuffer()
				}
				// unread takes back a packet nobody read; an unpooled
				// buffer's packets go to a pool of their own.
				unread := pool
				if unread == nil {
					unread = &Pool{k: k, size: size, free: new(sync.Pool)}
				}
				pre := NewPreCoder(buf, rngD)
				eager := newEagerBuffer(k, size)
				epre := &eagerPreCoder{buf: eager, rng: rngE}
				// recv is the deferred side's copy of a packet on the air,
				// sent puts a packet it handed out back once off the air.
				recv := func(p *Packet) *Packet {
					if pool == nil {
						return p.Clone()
					}
					poison(pool)
					q := pool.Get()
					q.CopyFrom(p)
					return q
				}
				sent := func(p *Packet) {
					if pool != nil && p != nil {
						pool.Put(p)
					}
				}
				// taken holds the packets Take handed out and not yet read,
				// each with its eager twin and the Add and Reset counts at
				// the time.
				type take struct {
					got, want    *Packet
					adds, resets int
				}
				var taken []take
				adds, resets := 0, 0
				read := func(at string, i int) {
					tk := taken[i]
					taken = append(taken[:i], taken[i+1:]...)
					if tk.adds != adds {
						afterAdd++
					}
					if tk.resets != resets {
						afterReset++
					}
					q := recv(tk.got)
					samePacket(t, at+" Take", q, tk.want)
					sent(q)
					sent(tk.got)
				}
				var fed []*Packet
				for step := 0; step < 20*k+40; step++ {
					at := fmt.Sprintf("K=%d size=%d pooled=%v step %d", k, size, pooled, step)
					if len(taken) > 0 && ops.Intn(4) == 0 {
						i := ops.Intn(len(taken))
						if ops.Intn(4) == 0 {
							unread.Put(taken[i].got)
							taken = append(taken[:i], taken[i+1:]...)
						} else {
							read(at, i)
						}
					}
					switch op := ops.Intn(10); {
					case ops.Intn(5*k+10) == 0:
						if pooled && op < 5 {
							pool.PutBuffer(buf)
							buf = pool.GetBuffer()
							pre = NewPreCoder(buf, rngD)
						} else {
							buf.Reset()
						}
						eager.Reset()
						epre.Reset()
						fed = fed[:0]
						resets++
					case op < 5: // a reception, handled as a relay handles it
						var p *Packet
						if op == 0 && eager.rank > 0 {
							p = eager.Recode(rand.New(rand.NewSource(ops.Int63())))
						} else {
							p = randomFill(ops, natives, fed)
						}
						fed = append(fed, p)
						innov := buf.Innovative(p.Vector)
						if innov != eager.Innovative(p.Vector) {
							t.Fatalf("%s: Innovative verdicts differ", at)
						}
						if op%2 == 1 || innov {
							if got, want := buf.Add(recv(p)), eager.Add(p.Clone()); got != want || got != innov {
								t.Fatalf("%s: Add = %v, eager %v, Innovative %v", at, got, want, innov)
							}
							adds++
						}
						if innov && op < 4 {
							pre.Update()
							epre.Update()
						}
					case op < 6:
						pre.Update()
						epre.Update()
					case op < 8:
						got, want := pre.Take(), epre.Take()
						if (got == nil) != (want == nil) {
							samePacket(t, at+" Take", got, want)
						}
						if got != nil {
							if got.Payload != nil {
								t.Fatalf("%s: Take handed out a payload before it was read", at)
							}
							taken = append(taken, take{got, want, adds, resets})
						}
					case op < 9:
						got, want := buf.Recode(rngD), eager.Recode(rngE)
						samePacket(t, at+" Recode", got, want)
						sent(got)
					default:
						pre.Refresh()
						epre.Refresh()
					}
					if buf.Rank() != eager.rank || pre.Ready() != epre.Ready() {
						t.Fatalf("%s: rank %d ready %v, eager rank %d ready %v",
							at, buf.Rank(), pre.Ready(), eager.rank, epre.Ready())
					}
				}
				for len(taken) > 0 {
					read(fmt.Sprintf("K=%d pooled=%v after the sequence", k, pooled), 0)
				}
				if rngD.Int63() != rngE.Int63() {
					t.Fatalf("K=%d pooled=%v: rng states differ after the sequence", k, pooled)
				}
			}
		}
		if afterAdd == 0 || afterReset == 0 {
			t.Fatalf("%d reads after a further Add, %d after a Reset: the sequences do not exercise the pending path", afterAdd, afterReset)
		}
	})
}
