package sim

// Event is a scheduled callback. Events may be canceled before they fire.
// After returns a one-shot Event; the MAC timers and a transmission's end
// are Event values embedded in their owner, bound once with init and armed
// any number of times through armAt.
type Event struct {
	fn       func()
	sim      *Simulator
	at       Time
	pos      int32 // slot in sim.queue; -1 when not queued
	canceled bool
}

// init binds an event to its simulator and callback, not yet queued.
func (e *Event) init(s *Simulator, fn func()) {
	e.fn, e.sim, e.pos = fn, s, -1
}

// Cancel prevents the event from firing and removes it from the queue at
// once. Canceling an already-fired or already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.pending() {
		e.sim.remove(int(e.pos))
	}
}

// Canceled reports whether Cancel was called since the event was last armed.
func (e *Event) Canceled() bool { return e != nil && e.canceled }

// At returns the event's scheduled time.
func (e *Event) At() Time { return e.at }

// pending reports whether the event is queued to fire.
func (e *Event) pending() bool { return e.pos >= 0 }

// entry is one slot of the event queue. The (time, sequence) key lives in
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

// heapArity is the fan-out of the event heap: a constant, not a parameter.
// On learned-512 a binary heap ran 9 % slower and arity 8 within 2 %
// (PERFORMANCE.md, PR 14); 4 halves a binary heap's depth and keeps a
// node's children in two cache lines.
const heapArity = 4

// siftUp places ent at slot i or above, moving later entries down.
func (s *Simulator) siftUp(i int, ent entry) {
	q := s.queue
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

// siftDown places ent at slot i or below, moving earlier entries up.
func (s *Simulator) siftDown(i int, ent entry) {
	q := s.queue
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

// remove takes the entry at slot i out of the queue.
func (s *Simulator) remove(i int) {
	q := s.queue
	q[i].ev.pos = -1
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	s.queue = q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&q[(i-1)/heapArity]) {
		s.siftUp(i, last)
	} else {
		s.siftDown(i, last)
	}
}

// armAt queues e to fire at absolute time at, replacing any pending arming.
// The sequence number is drawn here, at arm time, so simultaneous events
// fire in the order they were armed.
func (s *Simulator) armAt(e *Event, at Time) {
	if e.pending() {
		s.remove(int(e.pos))
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	e.at, e.canceled = at, false
	s.queue = append(s.queue, entry{})
	s.siftUp(len(s.queue)-1, entry{at: at, seq: s.seq, ev: e})
}

// After schedules fn to run delay after the current time and returns a
// cancelable handle.
func (s *Simulator) After(delay Time, fn func()) *Event {
	e := new(Event)
	e.init(s, fn)
	s.armAt(e, s.now+delay)
	return e
}
