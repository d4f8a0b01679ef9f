package sim

import (
	"math/bits"

	"repro/internal/graph"
)

// macState is the CSMA/CA state machine state.
type macState int

const (
	macIdle macState = iota
	macContending
	macTransmitting
	macWaitAck
)

// mac implements per-node 802.11 CSMA/CA: DIFS + binary-exponential backoff
// with freeze-on-busy for channel access, SIFS-spaced MAC ACKs plus
// retransmission for unicast frames, and fire-and-forget broadcast.
type mac struct {
	// What a carrier edge reads comes first and together: state (written
	// only by setState, which keeps Simulator.listening), difsSeq and
	// backoffTimer's slot.
	sim   *Simulator
	node  *Node
	state macState

	// The MAC owns its timers, so contention allocates nothing per arm. The
	// DIFS wait is a link in the simulator's DIFS lane (event.go): its firing
	// key, zero difsSeq when not waiting, and its neighbours in the lane. The
	// links live here and not in Event because every After and every
	// transmission carries an Event. The backoff and ACK timers are Event
	// values bound once in init and re-armed in place.
	difsSeq            uint64
	backoffTimer       Event
	difsAt             Time
	difsPrev, difsNext *mac
	ackTimer           Event

	backlogged bool // protocol asked for a transmission opportunity

	// Contention state.
	cw           int // current contention window (slots)
	backoffSlots int // remaining backoff slots
	backoffArmed bool
	backoffStart Time

	// Frame in progress.
	cur     *Frame
	retries int
	onAir   int // own transmissions currently in flight

	// MAC sequence numbers and duplicate suppression.
	nextSeq uint64
	dups    dupTable
}

// dupWindow bounds each node's MAC duplicate-suppression memory: the most
// recent dupWindow delivered (sender, sequence) keys are remembered, older
// ones forgotten. Real 802.11 duplicate detection keeps one recent (address,
// sequence) cache per peer for the same reason — a retransmitted duplicate
// always arrives within a few frames of the original, never a million frames
// later — so any value comfortably above the per-neighbor retry depth is
// behavior-identical.
const dupWindow = 4096

// dupTable remembers which of the last `window` unicast keys a MAC recorded,
// in one entry per sender heard — at most the node's in-neighbours, so a
// linear scan, and memory that does not grow with the run or the network.
//
// One entry per sender is exact, not an approximation of the window: a MAC
// sends its frames one at a time and its sequence counter only grows (it
// survives silence/revive), so the keys a receiver hears from one sender are
// non-decreasing in sequence (TestMACSequencePerSenderNeverDecreases). The
// only key of sender s that can arrive again is therefore its latest, and
// "the key is among the last window keys recorded" is "it is s's latest key
// and fewer than window keys were recorded since it was".
type dupTable struct {
	recorded uint64 // keys recorded so far
	senders  []dupEntry
}

type dupEntry struct {
	from       graph.NodeID
	lastSeq    uint64 // the sender's latest recorded sequence number
	recordedAt uint64 // dupTable.recorded just after recording it
}

// duplicate reports whether (from, seq) is among the last window keys
// recorded, and records it when it is not.
func (t *dupTable) duplicate(from graph.NodeID, seq, window uint64) bool {
	e := t.entry(from)
	if e == nil {
		t.senders = append(t.senders, dupEntry{from: from})
		e = &t.senders[len(t.senders)-1]
	} else if e.lastSeq == seq && t.recorded-e.recordedAt < window {
		return true
	}
	t.recorded++
	e.lastSeq, e.recordedAt = seq, t.recorded
	return false
}

func (t *dupTable) entry(from graph.NodeID) *dupEntry {
	for i := range t.senders {
		if t.senders[i].from == from {
			return &t.senders[i]
		}
	}
	return nil
}

// init binds a MAC of the simulator's slab to its node.
func (m *mac) init(n *Node) {
	m.sim, m.node = n.sim, n
	m.cw = CWMin
	m.backoffTimer.initNear(n.sim, m.backoffDone)
	m.ackTimer.init(n.sim, m.ackTimeout)
}

// wake is called by the protocol when it has traffic.
func (m *mac) wake() {
	if m.sim.failed.Has(m.node.id) {
		return
	}
	m.backlogged = true
	if m.state == macIdle {
		m.startContention()
	}
}

// setState is the only writer of m.state. A MAC entering macContending joins
// Simulator.listening and counts what it can sense on the air; one leaving
// it drops out, and its busy count means nothing until it is back.
func (m *mac) setState(st macState) {
	was := m.state == macContending
	m.state = st
	if is := st == macContending; is != was {
		s, id := m.sim, m.node.id
		if is {
			s.listening.Add(id)
			s.busy[id] = s.sensedBy(id)
		} else {
			s.listening.Remove(id)
		}
	}
}

// silence abandons all MAC activity permanently (Simulator.FailNode): timers
// are canceled, the pending frame is forgotten without a Sent callback (the
// dead node's protocol state no longer matters), and the state machine
// parks idle — out of Simulator.listening, so carrier edges pass it by.
func (m *mac) silence() {
	m.sim.cancelDIFS(m)
	m.backoffTimer.Cancel()
	m.ackTimer.Cancel()
	m.cur = nil
	m.backlogged = false
	m.backoffArmed = false
	m.setState(macIdle)
}

// revive resets a silenced MAC for a recovered node (Simulator.RecoverNode):
// fresh contention state and an empty duplicate-suppression memory, as a
// rebooted radio would have. The MAC sequence counter is NOT reset —
// neighbors still remember the pre-crash (sender, sequence) keys, and
// reusing them would make their duplicate suppression swallow the reborn
// node's first frames. Transmissions that started while the node was down
// are not lost on it: it counts the air when it next contends (setState).
func (m *mac) revive() {
	m.setState(macIdle)
	m.backlogged = false
	m.cur = nil
	m.retries = 0
	m.cw = CWMin
	m.backoffSlots = 0
	m.backoffArmed = false
	m.dups = dupTable{}
}

func (m *mac) startContention() {
	m.setState(macContending)
	if !m.backoffArmed {
		m.backoffSlots = m.sim.rng.Intn(m.cw + 1)
		m.backoffArmed = true
	}
	if m.mediumIdle() {
		m.armDIFS()
	}
	// Otherwise carrierDown will arm DIFS when the medium clears.
}

func (m *mac) armDIFS() { m.sim.armDIFS(m) }

// difsPending reports whether the MAC is waiting out a DIFS.
func (m *mac) difsPending() bool { return m.difsSeq != 0 }

// mediumIdle reports whether this node senses no transmission. Only a
// contending MAC may ask: busy is kept for those alone.
func (m *mac) mediumIdle() bool { return m.sim.busy[m.node.id] == 0 }

func (m *mac) difsDone() {
	if m.state != macContending || !m.mediumIdle() {
		return
	}
	if m.backoffSlots == 0 {
		m.transmitNow()
		return
	}
	s := m.sim
	m.backoffStart = s.now
	s.armAt(&m.backoffTimer, s.now+Time(m.backoffSlots)*SlotTime)
}

func (m *mac) backoffDone() {
	if m.state != macContending {
		return
	}
	m.backoffSlots = 0
	m.transmitNow()
}

// carrierStart counts a starting transmission in at every listening MAC of
// its sense set, and tells those for which it is the first.
func (s *Simulator) carrierStart(sense graph.NodeSet) {
	for w, word := range sense {
		for x := word & s.listening[w]; x != 0; x &= x - 1 {
			id := w<<6 | bits.TrailingZeros64(x)
			if s.busy[id]++; s.busy[id] == 1 {
				s.macs[id].carrierUp()
			}
		}
	}
}

// carrierEnd counts an ending transmission out, and tells the MACs for which
// it was the last. Ascending node order is part of the contract: carrierDown
// draws a sequence number per MAC (armDIFS). Neither edge handler changes a
// MAC's state, so the listening word read once per 64 nodes stays true.
func (s *Simulator) carrierEnd(sense graph.NodeSet) {
	for w, word := range sense {
		for x := word & s.listening[w]; x != 0; x &= x - 1 {
			id := w<<6 | bits.TrailingZeros64(x)
			if s.busy[id]--; s.busy[id] == 0 {
				s.macs[id].carrierDown()
			}
		}
	}
}

// carrierUp is called when the medium turns busy at this contending node:
// the first transmission it can sense (its own MAC ACK included) begins.
func (m *mac) carrierUp() {
	m.sim.cancelDIFS(m)
	if m.backoffTimer.pending() {
		// Freeze: credit fully elapsed slots.
		elapsed := int((m.sim.now - m.backoffStart) / SlotTime)
		if elapsed > m.backoffSlots {
			elapsed = m.backoffSlots
		}
		m.backoffSlots -= elapsed
		m.backoffTimer.Cancel()
	}
}

// carrierDown is called when the medium clears at this contending node: the
// last transmission it could sense ends.
func (m *mac) carrierDown() { m.armDIFS() }

// transmitNow fetches a frame if needed and puts it on the air.
func (m *mac) transmitNow() {
	if m.cur == nil {
		m.cur = m.node.proto.Pull()
		if m.cur == nil {
			m.backlogged = false
			m.setState(macIdle)
			return
		}
		m.cur.From = m.node.id
		m.nextSeq++
		m.cur.seq = m.nextSeq
		m.retries = 0
	}
	m.setState(macTransmitting)
	m.sim.startTransmission(m.node, m.cur)
}

// txFinished is called when this node's own transmission leaves the air.
func (m *mac) txFinished(tx *transmission) {
	if m.sim.failed.Has(m.node.id) {
		return // silenced mid-flight: no callbacks, no new contention
	}
	f := tx.frame
	if f.isMACAck {
		// ACK transmissions are side-band; resume whatever we were doing.
		// Contention resumes via carrierDown of our own ACK.
		return
	}
	if f.To == graph.Broadcast {
		cur := m.cur
		m.cur = nil
		m.postTxReset(true)
		m.node.proto.Sent(cur, true)
		return
	}
	// Unicast: await the MAC ACK.
	m.setState(macWaitAck)
	s := m.sim
	s.armAt(&m.ackTimer, s.now+sifs+AirTime(macAckBytes, basicRate)+2*SlotTime)
}

func (m *mac) ackTimeout() {
	if m.state != macWaitAck {
		return
	}
	m.retries++
	if m.retries >= retryLimit {
		cur := m.cur
		cur.Retries = m.retries
		m.cur = nil
		m.sim.Counters.UnicastFailures++
		m.postTxReset(true)
		m.node.proto.Sent(cur, false)
		return
	}
	// Exponential backoff and retry.
	m.cw = min(2*(m.cw+1)-1, cwMax)
	m.backoffSlots = m.sim.rng.Intn(m.cw + 1)
	m.backoffArmed = true
	m.setState(macContending)
	if m.mediumIdle() {
		m.armDIFS()
	}
}

// postTxReset resets contention state after a frame completes (delivered,
// dropped, or broadcast) and keeps contending if more traffic waits.
// newBackoff forces a fresh post-transmission backoff draw.
func (m *mac) postTxReset(newBackoff bool) {
	m.cw = CWMin
	m.retries = 0
	if newBackoff {
		m.backoffSlots = m.sim.rng.Intn(m.cw + 1)
		m.backoffArmed = true
	}
	if m.backlogged || m.cur != nil {
		m.setState(macContending)
		if m.mediumIdle() {
			m.armDIFS()
		}
	} else {
		m.setState(macIdle)
	}
}

// deliver hands a successfully decoded transmission to this node.
func (m *mac) deliver(tx *transmission) {
	f := tx.frame
	if f.isMACAck {
		if m.state == macWaitAck && f.To == m.node.id && f.ack.acks(m.cur) {
			m.ackTimer.Cancel()
			cur := m.cur
			cur.Retries = m.retries
			m.cur = nil
			m.sim.Counters.UnicastSuccesses++
			m.postTxReset(true)
			m.node.proto.Sent(cur, true)
		}
		return
	}
	if f.To == m.node.id {
		// Acknowledge even duplicates (the sender missed our ACK).
		m.scheduleMACAck(tx)
	}
	// A unicast, ours or overheard, is handed up once.
	if f.To != graph.Broadcast && m.dups.duplicate(f.From, f.seq, dupWindow) {
		return
	}
	m.node.proto.Receive(f)
}

// macAck is one 802.11 ACK from the SIFS wait behind the data frame to the
// end of its own transmission: the wait's event, bound once, and the ACK
// frame itself. An ACK frame never leaves the simulator (deliver consumes it,
// txFinished ignores it), so the record is recycled through
// Simulator.ackFree: when the wait finds the radio busy, or when the ACK
// leaves the air.
type macAck struct {
	wait  Event
	m     *mac   // the acknowledging MAC
	data  *Frame // the data frame acknowledged
	seq   uint64 // data's MAC sequence number when it was acknowledged
	frame Frame
}

// acks reports whether the ACK answers f. Protocols recycle their frames
// once Sent hands them back, so the pointer alone could name a later frame
// in the same memory; the sequence number tells the two apart.
func (a *macAck) acks(f *Frame) bool { return a.data == f && a.seq == f.seq }

// scheduleMACAck sends the 802.11 ACK one SIFS after the data frame. It
// keeps the data frame and its sender's ID, not the transmission: that one
// is recycled when it leaves the air (Simulator.release).
func (m *mac) scheduleMACAck(dataTx *transmission) {
	s := m.sim
	a := s.ackFree.Get()
	a.m, a.data, a.seq = m, dataTx.frame, dataTx.frame.seq
	a.frame = Frame{From: m.node.id, To: dataTx.from.id, Bytes: macAckBytes, isMACAck: true, ack: a}
	s.armAt(&a.wait, s.now+sifs)
}

// send puts the ACK on the air when its SIFS is over.
func (a *macAck) send() {
	n := a.m.node
	if a.m.onAir > 0 || n.Failed() {
		n.sim.ackFree.Put(a) // radio busy (or dead); sender will time out and retry
		return
	}
	n.sim.startTransmission(n, &a.frame)
}
