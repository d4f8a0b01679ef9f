package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// The reference: the event core as it stood before the indexed 4-ary queue —
// container/heap over *refEvent, lazy cancellation, compaction — moved here
// with only its names changed (and a compaction counter, so the differential
// test can tell it exercised that path). An owned timer in this model is the
// old MAC idiom: cancel the previous handle, keep the new one — whichever of
// the simulator's two heaps the timer lives in. A DIFS wait is an owned timer
// of delay DIFS, and WakeAfter a plain After whose callback wakes the node:
// one heap holds what the simulator splits over far heap, near heap, DIFS
// lane and wake FIFOs.

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped
	owner    *refSim
}

func (e *refEvent) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.owner != nil && e.index >= 0 {
		e.owner.noteCanceled()
	}
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x interface{}) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refSim struct {
	now             Time
	seq             uint64
	queue           refHeap
	canceledInQueue int
	compactions     int
}

func (s *refSim) schedule(at Time, fn func()) *refEvent {
	if at < s.now {
		at = s.now
	}
	s.seq++
	e := &refEvent{at: at, seq: s.seq, fn: fn, owner: s}
	heap.Push(&s.queue, e)
	return e
}

const refCompactionFloor = 64

func (s *refSim) noteCanceled() {
	s.canceledInQueue++
	if s.canceledInQueue >= refCompactionFloor && s.canceledInQueue*2 > len(s.queue) {
		s.compactQueue()
	}
}

func (s *refSim) compactQueue() {
	live := s.queue[:0]
	for _, e := range s.queue {
		if e.canceled {
			e.index = -1
		} else {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = live
	heap.Init(&s.queue)
	s.canceledInQueue = 0
	s.compactions++
}

func (s *refSim) After(delay Time, fn func()) *refEvent {
	return s.schedule(s.now+delay, fn)
}

func (s *refSim) RunWhile(until Time, cond func() bool) Time {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if e.at > until {
			break
		}
		heap.Pop(&s.queue)
		if e.canceled {
			s.canceledInQueue--
			continue
		}
		s.now = e.at
		e.fn()
		if cond != nil && !cond() {
			break
		}
	}
	if s.now > until {
		s.now = until
	}
	return s.now
}

func (s *refSim) Now() Time    { return s.now }
func (s *refSim) Pending() int { return len(s.queue) - s.canceledInQueue }

// eventQueue is what the differential script needs of either implementation.
type eventQueue interface {
	Now() Time
	Pending() int
	RunWhile(until Time, cond func() bool) Time
	after(d Time, fn func()) interface{ Cancel() }
	bindOwned(fns []func())
	armOwned(k int, d Time)
	cancelOwned(k int)
	// Script node k contends for the medium: armLane starts (or restarts)
	// its DIFS wait and cancelLane abandons it, as a clearing and a busy
	// medium do; wakeAfter is Node.WakeAfter — a wake that finds the node
	// idle starts the wait. pulled(k) runs when a wait ends.
	bindLanes(n int, pulled func(k int))
	armLane(k int)
	cancelLane(k int)
	wakeAfter(k int, d Time)
}

type refQueue struct {
	refSim
	fns   []func()
	owned []*refEvent

	pulled              func(k int)
	lane                []*refEvent
	idle                []bool
	laneFired, wakeDone int
}

func (q *refQueue) bindLanes(n int, pulled func(k int)) {
	q.pulled, q.lane, q.idle = pulled, make([]*refEvent, n), make([]bool, n)
	for k := range q.idle {
		q.idle[k] = true
	}
}
func (q *refQueue) armLane(k int) {
	q.idle[k] = false
	q.lane[k].Cancel()
	q.lane[k] = q.After(DIFS, func() {
		q.laneFired++
		q.idle[k] = true
		q.pulled(k)
	})
}
func (q *refQueue) cancelLane(k int) {
	q.lane[k].Cancel()
	q.idle[k] = true
}
func (q *refQueue) wakeAfter(k int, d Time) {
	q.After(d, func() {
		q.wakeDone++
		if q.idle[k] {
			q.armLane(k)
		}
	})
}

func (q *refQueue) after(d Time, fn func()) interface{ Cancel() } { return q.After(d, fn) }
func (q *refQueue) bindOwned(fns []func()) {
	q.fns, q.owned = fns, make([]*refEvent, len(fns))
}
func (q *refQueue) armOwned(k int, d Time) {
	q.owned[k].Cancel()
	q.owned[k] = q.After(d, q.fns[k])
}
func (q *refQueue) cancelOwned(k int) { q.owned[k].Cancel() }

type indexedQueue struct {
	*Simulator
	owned []*Event
}

func newIndexedQueue() *indexedQueue {
	return &indexedQueue{Simulator: New(graph.New(scriptLanes), DefaultConfig())}
}

// pullLogger is the protocol of a script node: the MAC pulls when the node's
// DIFS wait ends (its backoff is pinned at zero slots), finds nothing to
// send and goes idle.
type pullLogger struct{ pulled func() }

func (p pullLogger) Init(*Node)        {}
func (p pullLogger) Receive(*Frame)    {}
func (p pullLogger) Sent(*Frame, bool) {}
func (p pullLogger) Pull() *Frame      { p.pulled(); return nil }

func (q *indexedQueue) bindLanes(n int, pulled func(k int)) {
	for k := 0; k < n; k++ {
		q.Attach(graph.NodeID(k), pullLogger{func() { pulled(k) }})
		m := q.nodes[k].mac
		m.backoffArmed, m.backoffSlots = true, 0 // no draw, no backoff timer
	}
}
func (q *indexedQueue) armLane(k int) {
	m := q.nodes[k].mac
	m.setState(macContending)
	q.armDIFS(m)
}
func (q *indexedQueue) cancelLane(k int) {
	m := q.nodes[k].mac
	q.cancelDIFS(m)
	m.setState(macIdle)
}
func (q *indexedQueue) wakeAfter(k int, d Time) { q.nodes[k].WakeAfter(d) }

func (q *indexedQueue) after(d Time, fn func()) interface{ Cancel() } { return q.After(d, fn) }

// The owned events are armed through both doors: the even ones as the MAC
// arms its embedded timers, the odd ones as a protocol restarts a timer of
// its own (Node.NewTimer, Event.Reset). The reference's Cancel-and-After is
// what either replaces. The last scriptNear of them live in the near heap,
// as a MAC's backoff timer and a transmission's end do.
func (q *indexedQueue) bindOwned(fns []func()) {
	q.owned = make([]*Event, len(fns))
	for k, fn := range fns {
		switch {
		case k >= scriptOwned:
			q.owned[k] = new(Event)
			q.owned[k].initNear(q.Simulator, fn)
		case k%2 == 0:
			q.owned[k] = new(Event)
			q.owned[k].init(q.Simulator, fn)
		default:
			q.owned[k] = q.nodes[0].NewTimer(fn)
		}
	}
}
func (q *indexedQueue) armOwned(k int, d Time) {
	e := q.owned[k]
	if k%2 == 0 {
		q.armAt(e, q.now+d)
	} else {
		e.Reset(d)
	}
	h := q.queue
	if k >= scriptOwned {
		h = q.near
	}
	if int(e.pos) >= len(h) || h[e.pos].ev != e {
		panic("an armed event is not in its owner's heap")
	}
}
func (q *indexedQueue) cancelOwned(k int) { q.owned[k].Cancel() }

// step is one observation of a script run: an event firing (id ≥ 0) or the
// state after an operation (id −1).
type step struct {
	id      int
	now     Time
	pending int
}

const (
	scriptUnit   = 10 * Microsecond // delays are 0..7 units (DIFS is 5): same-instant ties are common
	scriptOwned  = 6                // owned timers in the far heap, ids 0..5
	scriptNear   = 2                // and in the near heap: owned[scriptOwned+j] logs id scriptNearID+j
	scriptNearID = 1 << 30
	scriptLanes  = 16 // script nodes; their firings log ids scriptOwned..scriptOwned+scriptLanes-1
	scriptWoken  = 4  // half the WakeAfter operations go to this many of them, so their FIFOs run a few keys deep
)

// runScript interprets ops against q and returns everything observable:
// which event fired when, and Now() and Pending() after every operation.
// Each operation takes its opcode from one byte and its arguments from the
// next two; what a fired event does (nothing, schedule a child at the
// current instant, cancel itself, cancel another handle) depends only on
// its id, so both implementations see the same behaviour.
func runScript(q eventQueue, ops []byte) []step {
	var log []step
	var handles []interface{ Cancel() }
	nextID := scriptOwned + scriptLanes
	recent := func(arg byte) interface{ Cancel() } {
		return handles[len(handles)-1-int(arg)%min(64, len(handles))]
	}
	var oneShot func(d Time)
	oneShot = func(d Time) {
		id := nextID
		nextID++
		var self interface{ Cancel() }
		self = q.after(d, func() {
			log = append(log, step{id, q.Now(), q.Pending()})
			switch {
			case id%5 == 0:
				oneShot(0) // from inside a callback, at the current instant
			case id%7 == 0:
				self.Cancel() // own callback: already fired, a no-op
			case id%11 == 0:
				recent(byte(id)).Cancel()
			}
		})
		handles = append(handles, self)
	}
	fns := make([]func(), scriptOwned+scriptNear)
	for k := range fns {
		id := k
		if k >= scriptOwned {
			id = scriptNearID + k - scriptOwned
		}
		fns[k] = func() {
			log = append(log, step{id, q.Now(), q.Pending()})
			switch k % 3 {
			case 0:
				q.armOwned(k, Time(1+k%2)*scriptUnit) // a periodic timer
			case 1:
				q.cancelOwned(k)
			}
		}
	}
	q.bindOwned(fns)
	q.bindLanes(scriptLanes, func(k int) {
		log = append(log, step{scriptOwned + k, q.Now(), q.Pending()})
		switch k {
		case 0:
			oneShot(0) // a heap entry behind whatever the lane holds at this instant
		case 1:
			q.wakeAfter(2, Time(len(log)%6)*scriptUnit)
		}
	})

	for i := 0; i+2 < len(ops); i += 3 {
		a, b := ops[i+1], ops[i+2]
		switch op := ops[i] % 28; {
		case op < 6:
			oneShot(Time(a%8) * scriptUnit)
		case op < 8:
			if len(handles) > 0 {
				recent(a).Cancel()
			}
		case op == 8:
			if len(handles) > 0 {
				recent(a).Cancel()
				recent(a).Cancel()
			}
		case op < 11:
			q.armOwned(int(a)%scriptOwned, Time(b%8)*scriptUnit)
		case op == 11:
			q.cancelOwned(int(a) % scriptOwned)
		case op < 15:
			left := 1 + int(b%64)
			q.RunWhile(q.Now()+Time(a%4)*scriptUnit, func() bool { left--; return left > 0 })
		case op == 16:
			q.armLane(int(a) % scriptLanes)
		case op == 17:
			q.cancelLane(int(a) % scriptLanes)
		case op > 17 && op < 24:
			k := int(a) % scriptLanes
			if b >= 128 {
				k %= scriptWoken
			}
			q.wakeAfter(k, Time(b%32)*scriptUnit)
		case op == 24 || op == 25:
			q.armOwned(scriptOwned+int(a)%scriptNear, Time(b%8)*scriptUnit)
		case op == 26:
			q.cancelOwned(scriptOwned + int(a)%scriptNear)
		case op == 27:
			// One instant, all four sources: a far one-shot, a near timer, a
			// DIFS wait and a wake, due together and told apart by the order
			// they were asked for.
			oneShot(DIFS)
			q.armOwned(scriptOwned+int(a)%scriptNear, DIFS)
			q.armLane(int(b) % scriptLanes)
			q.wakeAfter(int(b)%scriptWoken, DIFS)
		default:
			// The long-run pattern: far more doomed timers than live ones.
			for j := 0; j < 96; j++ {
				oneShot(Time(j%7) * scriptUnit)
				if j%8 != 0 {
					handles[len(handles)-1].Cancel()
				}
			}
		}
		log = append(log, step{-1, q.Now(), q.Pending()})
	}
	for k := range fns {
		q.cancelOwned(k) // the periodic ones would never drain
	}
	q.RunWhile(q.Now()+Second, nil)
	return append(log, step{-1, q.Now(), q.Pending()})
}

// diffScript runs ops through both queues and reports the first divergence.
func diffScript(t *testing.T, ops []byte) (fired int, ref *refQueue, want []step) {
	t.Helper()
	ref = &refQueue{}
	want = runScript(ref, ops)
	got := runScript(newIndexedQueue(), ops)
	if len(got) != len(want) {
		t.Fatalf("observed %d steps, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: got %+v, reference %+v", i, got[i], want[i])
		}
		if want[i].id >= 0 {
			fired++
		}
	}
	if last := want[len(want)-1]; last.pending != 0 {
		t.Fatalf("script left %d events pending after the drain", last.pending)
	}
	return fired, ref, want
}

// TestEventQueueDifferential drives the event core — far heap, near heap,
// DIFS lane and wake FIFOs — and the container/heap reference with the same
// 160 000 mixed operations and requires the same firing order, the same Now()
// at each firing and the same Pending() after every step.
func TestEventQueueDifferential(t *testing.T) {
	ops := make([]byte, 3*160_000)
	rand.New(rand.NewSource(14)).Read(ops)
	fired, ref, log := diffScript(t, ops)
	if fired < 100_000 {
		t.Errorf("only %d events fired: the script is not exercising the queue", fired)
	}
	// Instants at which the far heap, the near heap and the DIFS lane all
	// fired: the three-way merge in next decided by sequence number alone.
	// (A wake shows as the DIFS wait it starts.)
	const far, near, lane = 1, 2, 4
	nearFired, ties, seen, at := 0, 0, 0, Time(-1)
	for _, st := range log {
		if st.id < 0 {
			continue
		}
		if st.now != at {
			at, seen = st.now, 0
		}
		src := far
		switch {
		case st.id >= scriptNearID:
			src = near
			nearFired++
		case st.id >= scriptOwned && st.id < scriptOwned+scriptLanes:
			src = lane
		}
		if seen |= src; seen == far|near|lane {
			ties++
			seen = 0
		}
	}
	if nearFired < 5_000 || ties < 2_000 {
		t.Errorf("%d near-heap firings and %d instants shared by far heap, near heap and DIFS lane, want 5 000 and 2 000", nearFired, ties)
	}
	if ref.compactions == 0 {
		t.Error("the reference never compacted: no burst of doomed timers was exercised")
	}
	if ref.laneFired < 10_000 || ref.wakeDone < 10_000 {
		t.Errorf("%d DIFS waits ended and %d wakes fired, want 10 000 of each", ref.laneFired, ref.wakeDone)
	}
	t.Logf("%d firings: %d DIFS waits, %d wakes", fired, ref.laneFired, ref.wakeDone)
}

// FuzzEventQueueOrder takes the operation stream from the fuzzer.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 3, 0, 6, 0, 0, 12, 3, 15})           // tie, cancel one, run
	f.Add([]byte{9, 0, 2, 9, 0, 5, 11, 0, 0, 9, 0, 1, 12, 3, 15}) // re-arm pending, cancel, re-arm
	f.Add([]byte{15, 0, 0, 8, 5, 0, 12, 3, 15, 15, 0, 0})         // bursts around a run
	// A wake requested before, and firing after, a burst of same-instant ties;
	// a second key waits behind it in the node's FIFO.
	f.Add([]byte{19, 1, 5, 19, 1, 5, 15, 0, 0, 0, 5, 0, 16, 2, 0, 12, 3, 15, 12, 3, 15})
	// DIFS waits of nodes 0..4 queued in order, then the middle, the tail and
	// the head canceled; one re-armed behind the survivors.
	f.Add([]byte{16, 0, 0, 16, 1, 0, 16, 2, 0, 16, 3, 0, 16, 4, 0, 17, 2, 0, 17, 4, 0, 17, 0, 0, 16, 2, 0, 12, 3, 15})
	// WakeAfter out of order on one node: 70 us, then 20 us twice, then now,
	// with a heap entry and a DIFS wait armed in between.
	f.Add([]byte{19, 3, 7, 0, 2, 0, 19, 3, 2, 16, 3, 0, 19, 3, 2, 19, 3, 0, 12, 3, 15, 12, 3, 15})
	// A near timer armed, re-armed earlier while pending, canceled, armed
	// again and left to fire between two far one-shots at its own instant.
	f.Add([]byte{24, 0, 5, 24, 0, 2, 26, 0, 0, 0, 3, 0, 24, 0, 3, 0, 3, 0, 25, 1, 3, 12, 3, 15, 12, 3, 15})
	// All four sources due at one instant, twice over with the order of the
	// requests reversed by a cancel and re-arm of the near timer.
	f.Add([]byte{27, 0, 1, 27, 1, 2, 26, 0, 0, 24, 0, 5, 17, 1, 0, 16, 1, 0, 13, 3, 40, 13, 3, 40})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*4096 {
			ops = ops[:3*4096]
		}
		diffScript(t, ops)
	})
}

// TestCancelRemovesAtOnce schedules far more doomed timers than live ones —
// the pattern of long multi-flow runs, where every delivered frame leaves a
// canceled retransmit timer behind — and checks the queue holds exactly the
// live ones, canceled events never fire, and survivors fire in (time,
// insertion) order.
func TestCancelRemovesAtOnce(t *testing.T) {
	s := New(graph.New(1), DefaultConfig())
	const total = 16 * 64
	fired := make([]bool, total)
	var order []int
	liveCount := 0
	for i := 0; i < total; i++ {
		// Deliberately non-monotone times so removal has real heap structure
		// to preserve: time (i%7) ms, tie-broken by insertion.
		e := s.After(Time(i%7)*Millisecond, func() { fired[i] = true; order = append(order, i) })
		if i%8 != 0 {
			e.Cancel()
		} else {
			liveCount++
		}
	}
	if len(s.queue) != liveCount || s.Pending() != liveCount {
		t.Fatalf("queue holds %d entries, Pending = %d, for %d live events",
			len(s.queue), s.Pending(), liveCount)
	}
	s.Run(Second)
	for i := range fired {
		if want := i%8 == 0; fired[i] != want {
			t.Fatalf("event %d fired=%v, want %v", i, fired[i], want)
		}
	}
	for k := 1; k < len(order); k++ {
		ta, tb := order[k-1]%7, order[k]%7
		if ta > tb || (ta == tb && order[k-1] > order[k]) {
			t.Fatalf("removal perturbed order: %d before %d", order[k-1], order[k])
		}
	}
	if len(order) != liveCount {
		t.Fatalf("fired %d events, want %d", len(order), liveCount)
	}
}

// TestOwnedEventRearm pins the semantics of an owner-embedded event: one
// object, armed any number of times, in the queue at most once.
func TestOwnedEventRearm(t *testing.T) {
	type fixture struct {
		s     *Simulator
		ev    Event
		fired []Time
	}
	cases := []struct {
		name string
		run  func(t *testing.T, f *fixture)
		want []Time // firing times
	}{
		{"re-arm after firing", func(t *testing.T, f *fixture) {
			f.s.armAt(&f.ev, 10)
			f.s.Run(20)
			f.s.armAt(&f.ev, 30)
			f.s.Run(40)
		}, []Time{10, 30}},
		{"re-arm after cancel", func(t *testing.T, f *fixture) {
			f.s.armAt(&f.ev, 10)
			f.ev.Cancel()
			if !f.ev.Canceled() || f.ev.pending() || f.s.Pending() != 0 {
				t.Fatalf("after Cancel: canceled=%v pending=%v queue=%d", f.ev.Canceled(), f.ev.pending(), f.s.Pending())
			}
			f.s.armAt(&f.ev, 15)
			if f.ev.Canceled() {
				t.Fatal("re-armed event still reports Canceled")
			}
			f.s.Run(40)
		}, []Time{15}},
		{"re-arm while pending replaces the arming", func(t *testing.T, f *fixture) {
			f.s.armAt(&f.ev, 10)
			f.s.armAt(&f.ev, 25)
			if f.s.Pending() != 1 {
				t.Fatalf("Pending = %d, want 1", f.s.Pending())
			}
			f.s.armAt(&f.ev, 5)
			f.s.Run(40)
		}, []Time{5}},
		{"cancel twice, then fire again", func(t *testing.T, f *fixture) {
			f.s.armAt(&f.ev, 10)
			f.ev.Cancel()
			f.ev.Cancel()
			f.s.Run(20)
			f.s.armAt(&f.ev, 30)
			f.s.Run(40)
		}, []Time{30}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := &fixture{s: New(graph.New(1), DefaultConfig())}
			f.ev.init(f.s, func() { f.fired = append(f.fired, f.s.Now()) })
			c.run(t, f)
			if len(f.fired) != len(c.want) {
				t.Fatalf("fired at %v, want %v", f.fired, c.want)
			}
			for i := range c.want {
				if f.fired[i] != c.want[i] {
					t.Fatalf("fired at %v, want %v", f.fired, c.want)
				}
			}
			if f.s.Pending() != 0 {
				t.Fatalf("Pending = %d after the run", f.s.Pending())
			}
		})
	}

	t.Run("cancel from inside its own callback", func(t *testing.T) {
		s := New(graph.New(1), DefaultConfig())
		var ev Event
		fired := 0
		ev.init(s, func() {
			fired++
			ev.Cancel() // already out of the queue: must not disturb it
			if fired == 1 {
				s.armAt(&ev, s.Now()+5)
			}
		})
		other := s.After(12, func() { fired += 10 })
		s.armAt(&ev, 10)
		s.Run(40)
		if fired != 12 || other.Canceled() || s.Pending() != 0 {
			t.Fatalf("fired=%d otherCanceled=%v pending=%d; want 12, false, 0", fired, other.Canceled(), s.Pending())
		}
	})
}
