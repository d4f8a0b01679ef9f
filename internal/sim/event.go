package sim

// The event core is four structures that together fire everything in one
// strict (time, sequence) order, the sequence number drawn from Simulator.seq
// at the moment a firing is requested:
//
//   - the far heap (Simulator.queue): a 4-ary indexed min-heap of Events, for
//     arbitrary delays — protocol timers, probe and advertise ticks, seconds
//     away and thousands deep on a large run;
//   - the near heap (Simulator.near): the same heap, run by the same
//     functions, for the events whose owner arms them at most a contention
//     window or one airtime ahead — a MAC's backoff timer, a transmission's
//     end. Among themselves they sift through a few dozen entries instead of
//     climbing past, and sinking under, every long-dated timer;
//   - the DIFS lane: a doubly linked list of MACs waiting out a DIFS. Every
//     such wait is now+DIFS on a clock that never runs backwards, so arm
//     order is already firing order and arm, cancel and fire are O(1);
//   - one wake FIFO per node: the keys of requested Node.WakeAfter calls,
//     of which only the earliest is in the far heap, on the node's own Event.
//
// RunWhile takes whichever of lane head, near top and far top is first. Tests
// hold all four against a container/heap model (event_test.go).

// Event is a scheduled callback. Events may be canceled before they fire.
// After returns a one-shot Event; the MAC timers, a transmission's end and a
// MAC ACK's SIFS wait are Event values embedded in their owner, bound once
// with init (or initNear) and armed any number of times through armAt.
// Node.NewTimer and Reset are the same for a protocol's own timers.
type Event struct {
	fn       func()
	sim      *Simulator
	at       Time
	pos      int32 // slot in its heap; -1 when not queued
	canceled bool
	near     bool // queued in sim.near, not sim.queue; the owner's choice at init, for good
}

// init binds an event to its simulator and callback, not yet queued.
func (e *Event) init(s *Simulator, fn func()) {
	e.fn, e.sim, e.pos = fn, s, -1
}

// initNear is init for an event that is only ever armed a short way ahead:
// it lives in the near heap.
func (e *Event) initNear(s *Simulator, fn func()) {
	e.init(s, fn)
	e.near = true
}

// heap returns the heap the event is queued in when it is pending.
func (e *Event) heap() *[]entry {
	if e.near {
		return &e.sim.near
	}
	return &e.sim.queue
}

// Cancel prevents the event from firing and removes it from the queue at
// once. Canceling an already-fired or already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.pending() {
		remove(e.heap(), int(e.pos))
	}
}

// Canceled reports whether Cancel was called since the event was last armed.
func (e *Event) Canceled() bool { return e != nil && e.canceled }

// At returns the event's scheduled time.
func (e *Event) At() Time { return e.at }

// pending reports whether the event is queued to fire.
func (e *Event) pending() bool { return e.pos >= 0 }

// entry is one slot of an event heap. The (time, sequence) key lives in
// the slot so ordering never dereferences the event.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before is the queue's strict total order: earlier time first, and among
// simultaneous events the one armed first — deterministic ties.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapArity is the fan-out of the event heaps: a constant, not a parameter.
// On learned-512 a binary heap ran 9 % slower and arity 8 within 2 %
// (PERFORMANCE.md, PR 14); 4 halves a binary heap's depth and keeps a
// node's children in two cache lines.
const heapArity = 4

// siftUp places ent at slot i of heap q or above, moving later entries down.
func siftUp(q []entry, i int, ent entry) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !ent.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.pos = int32(i)
		i = p
	}
	q[i] = ent
	ent.ev.pos = int32(i)
}

// siftDown places ent at slot i of heap q or below, moving earlier entries up.
func siftDown(q []entry, i int, ent entry) {
	for {
		first := heapArity*i + 1
		if first >= len(q) {
			break
		}
		least := first
		for c, end := first+1, min(first+heapArity, len(q)); c < end; c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&ent) {
			break
		}
		q[i] = q[least]
		q[i].ev.pos = int32(i)
		i = least
	}
	q[i] = ent
	ent.ev.pos = int32(i)
}

// remove takes the entry at slot i out of heap *h.
func remove(h *[]entry, i int) {
	q := *h
	q[i].ev.pos = -1
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	q = q[:n]
	*h = q
	if i == n {
		return
	}
	if i > 0 && last.before(&q[(i-1)/heapArity]) {
		siftUp(q, i, last)
	} else {
		siftDown(q, i, last)
	}
}

// armAt queues e to fire at absolute time at, replacing any pending arming.
// The sequence number is drawn here, at arm time, so simultaneous events
// fire in the order they were armed.
func (s *Simulator) armAt(e *Event, at Time) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.armAtSeq(e, at, s.seq)
}

// armAtSeq queues e under a key drawn earlier (a wake FIFO's head).
func (s *Simulator) armAtSeq(e *Event, at Time, seq uint64) {
	h := e.heap()
	if e.pending() {
		remove(h, int(e.pos))
	}
	e.at, e.canceled = at, false
	*h = append(*h, entry{})
	siftUp(*h, len(*h)-1, entry{at: at, seq: seq, ev: e})
}

// After schedules fn to run delay after the current time and returns a
// cancelable handle.
func (s *Simulator) After(delay Time, fn func()) *Event {
	e := new(Event)
	e.init(s, fn)
	s.armAt(e, s.now+delay)
	return e
}

// Reset arms the event to fire delay from now, replacing any pending firing:
// Cancel and After on a timer made once by Node.NewTimer, without the new
// Event and closure, drawing the same sequence number.
func (e *Event) Reset(delay Time) { e.sim.armAt(e, e.sim.now+delay) }

// armDIFS appends m to the DIFS lane, to fire m.difsDone one DIFS from now,
// replacing any pending wait. It draws the sequence number an armAt in its
// place would, so lane and heap interleave exactly as one queue.
func (s *Simulator) armDIFS(m *mac) {
	s.cancelDIFS(m)
	s.seq++
	m.difsAt, m.difsSeq = s.now+DIFS, s.seq
	m.difsPrev, m.difsNext = s.laneTail, nil
	if s.laneTail != nil {
		s.laneTail.difsNext = m
	} else {
		s.laneHead = m
	}
	s.laneTail = m
	s.offHeap++
}

// cancelDIFS unlinks m from the DIFS lane if it is waiting there.
func (s *Simulator) cancelDIFS(m *mac) {
	if !m.difsPending() {
		return
	}
	if m.difsPrev != nil {
		m.difsPrev.difsNext = m.difsNext
	} else {
		s.laneHead = m.difsNext
	}
	if m.difsNext != nil {
		m.difsNext.difsPrev = m.difsPrev
	} else {
		s.laneTail = m.difsPrev
	}
	m.difsPrev, m.difsNext, m.difsSeq = nil, nil, 0
	s.offHeap--
}

// next advances the clock to the earliest firing due by until, takes it out
// of its structure and returns it: a heap event, or a MAC whose DIFS is over.
// Both are nil when nothing is due.
func (s *Simulator) next(until Time) (*Event, *mac) {
	h := &s.queue
	if len(s.near) > 0 && (len(s.queue) == 0 || s.near[0].before(&s.queue[0])) {
		h = &s.near
	}
	m := s.laneHead
	if len(*h) > 0 {
		top := &(*h)[0]
		if m == nil || top.before(&entry{at: m.difsAt, seq: m.difsSeq}) {
			if top.at > until {
				return nil, nil
			}
			e := top.ev
			remove(h, 0)
			s.now = e.at
			return e, nil
		}
	}
	if m == nil || m.difsAt > until {
		return nil, nil
	}
	s.now = m.difsAt
	s.cancelDIFS(m)
	return nil, m
}

// wakeKey is the reserved firing key of one WakeAfter request.
type wakeKey struct {
	at  Time
	seq uint64
}

// WakeAfter calls Wake after delay: After(delay, n.Wake) without an Event
// and a closure per request. The request's (time, sequence) key is drawn
// here, where After would draw it, and waits in the node's FIFO; the node's
// one wake Event sits in the far heap under the earliest key and moves to the
// next when it fires, so every wake fires exactly where its own one-shot
// timer would have. Requests cannot be canceled.
func (n *Node) WakeAfter(delay Time) {
	s := n.sim
	s.seq++
	k := wakeKey{at: s.now + max(delay, 0), seq: s.seq}
	live := len(n.wakes) - n.wakeHead
	if len(n.wakes) == cap(n.wakes) && n.wakeHead >= live {
		// Out of room, and the fired keys before the head take at least half
		// of it: slide the live ones down instead of growing. Amortised O(1),
		// and a FIFO that never drains stays bounded by its backlog.
		n.wakes, n.wakeHead = n.wakes[:copy(n.wakes, n.wakes[n.wakeHead:])], 0
	}
	// Keep the FIFO sorted. Callers ask in time order, so the loop body runs
	// only in tests; k holds the newest sequence number there is, so it goes
	// behind every key not later than it.
	i := len(n.wakes)
	n.wakes = append(n.wakes, k)
	for ; i > n.wakeHead && n.wakes[i-1].at > k.at; i-- {
		n.wakes[i] = n.wakes[i-1]
	}
	n.wakes[i] = k
	if i == n.wakeHead {
		s.armAtSeq(&n.wakeEv, k.at, k.seq)
	}
	if live > 0 {
		s.offHeap++ // one more key behind a head
	}
}

// wakeDue fires the FIFO's head: hand the wake Event to the next key, then
// wake the MAC.
func (n *Node) wakeDue() {
	n.wakeHead++
	if n.wakeHead < len(n.wakes) {
		k := n.wakes[n.wakeHead]
		n.sim.armAtSeq(&n.wakeEv, k.at, k.seq)
		n.sim.offHeap--
	}
	n.Wake()
}
