package sim

import "repro/internal/graph"

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
	node  *Node
	state macState

	busy       int  // carrier-sense count of audible transmissions
	backlogged bool // protocol asked for a transmission opportunity

	// Contention state.
	cw           int // current contention window (slots)
	backoffSlots int // remaining backoff slots
	backoffArmed bool
	backoffStart Time

	// The MAC owns its three timers: Event values bound once in newMAC and
	// re-armed in place, so contention allocates nothing per arm.
	difsTimer    Event
	backoffTimer Event
	ackTimer     Event

	// Frame in progress.
	cur     *Frame
	retries int
	onAir   int // own transmissions currently in flight

	// MAC sequence numbers and duplicate suppression. seen is bounded by
	// the configured DupWindow: seenRing remembers insertion order and the
	// oldest key is evicted once the window fills, so memory stays O(window)
	// on arbitrarily long runs. Real 802.11 duplicate detection keeps one
	// recent (address, sequence) cache per peer for the same reason — a
	// retransmitted duplicate always arrives within a few frames of the
	// original, never a million frames later.
	nextSeq  uint64
	seen     map[uint64]struct{} // (from<<40 | seq) of delivered unicasts
	seenRing []uint64            // insertion order of seen keys
	seenNext int                 // ring slot holding the oldest key
}

func newMAC(n *Node) *mac {
	m := &mac{
		node: n,
		cw:   CWMin,
		seen: make(map[uint64]struct{}),
	}
	m.difsTimer.init(n.sim, m.difsDone)
	m.backoffTimer.init(n.sim, m.backoffDone)
	m.ackTimer.init(n.sim, m.ackTimeout)
	return m
}

// recordSeen marks key as delivered, evicting the oldest remembered key
// once the duplicate-suppression window is full.
func (m *mac) recordSeen(key uint64) {
	w := m.node.sim.cfg.DupWindow
	if len(m.seenRing) < w {
		m.seenRing = append(m.seenRing, key)
	} else {
		delete(m.seen, m.seenRing[m.seenNext])
		m.seenRing[m.seenNext] = key
		m.seenNext = (m.seenNext + 1) % w
	}
	m.seen[key] = struct{}{}
}

// wake is called by the protocol when it has traffic.
func (m *mac) wake() {
	if m.node.failed {
		return
	}
	m.backlogged = true
	if m.state == macIdle {
		m.startContention()
	}
}

// silence abandons all MAC activity permanently (Simulator.FailNode): timers
// are canceled, the pending frame is forgotten without a Sent callback (the
// dead node's protocol state no longer matters), and the state machine
// parks idle. Carrier-sense bookkeeping keeps running so the busy count
// stays balanced with neighbors' transmissions.
func (m *mac) silence() {
	m.difsTimer.Cancel()
	m.backoffTimer.Cancel()
	m.ackTimer.Cancel()
	m.cur = nil
	m.backlogged = false
	m.backoffArmed = false
	m.state = macIdle
}

// revive resets a silenced MAC for a recovered node (Simulator.RecoverNode):
// fresh contention state and an empty duplicate-suppression memory, as a
// rebooted radio would have. The MAC sequence counter is NOT reset —
// neighbors still remember the pre-crash (sender, sequence) keys, and
// reusing them would make their duplicate suppression swallow the reborn
// node's first frames. The carrier-sense count is left alone too: it tracks
// neighbors' in-flight transmissions, which silence kept counting, and
// zeroing it would unbalance the pending carrierDown events.
func (m *mac) revive() {
	m.state = macIdle
	m.backlogged = false
	m.cur = nil
	m.retries = 0
	m.cw = CWMin
	m.backoffSlots = 0
	m.backoffArmed = false
	m.seen = make(map[uint64]struct{})
	m.seenRing = nil
	m.seenNext = 0
}

func (m *mac) startContention() {
	m.state = macContending
	if !m.backoffArmed {
		m.backoffSlots = m.node.sim.rng.Intn(m.cw + 1)
		m.backoffArmed = true
	}
	if m.busy == 0 {
		m.armDIFS()
	}
	// Otherwise carrierDown will arm DIFS when the medium clears.
}

func (m *mac) armDIFS() {
	s := m.node.sim
	s.armAt(&m.difsTimer, s.now+DIFS)
}

func (m *mac) difsDone() {
	if m.state != macContending || m.busy > 0 {
		return
	}
	if m.backoffSlots == 0 {
		m.transmitNow()
		return
	}
	s := m.node.sim
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

// carrierUp is called when a transmission this node can sense begins
// (including its own).
func (m *mac) carrierUp() {
	m.busy++
	if m.busy != 1 {
		return
	}
	m.difsTimer.Cancel()
	if m.backoffTimer.pending() {
		// Freeze: credit fully elapsed slots.
		elapsed := int((m.node.sim.now - m.backoffStart) / SlotTime)
		if elapsed > m.backoffSlots {
			elapsed = m.backoffSlots
		}
		m.backoffSlots -= elapsed
		m.backoffTimer.Cancel()
	}
}

// carrierDown is called when a sensed transmission ends.
func (m *mac) carrierDown() {
	m.busy--
	if m.busy != 0 {
		return
	}
	if m.state == macContending {
		m.armDIFS()
	}
}

// transmitNow fetches a frame if needed and puts it on the air.
func (m *mac) transmitNow() {
	if m.cur == nil {
		m.cur = m.node.proto.Pull()
		if m.cur == nil {
			m.backlogged = false
			m.state = macIdle
			return
		}
		m.cur.From = m.node.id
		m.nextSeq++
		m.cur.seq = m.nextSeq
		m.retries = 0
	}
	m.state = macTransmitting
	m.node.sim.startTransmission(m.node, m.cur)
}

// txFinished is called when this node's own transmission leaves the air.
func (m *mac) txFinished(tx *transmission) {
	if m.node.failed {
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
	m.state = macWaitAck
	s := m.node.sim
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
		m.node.sim.Counters.UnicastFailures++
		m.postTxReset(true)
		m.node.proto.Sent(cur, false)
		return
	}
	// Exponential backoff and retry.
	m.cw = min(2*(m.cw+1)-1, cwMax)
	m.backoffSlots = m.node.sim.rng.Intn(m.cw + 1)
	m.backoffArmed = true
	m.state = macContending
	if m.busy == 0 {
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
		m.backoffSlots = m.node.sim.rng.Intn(m.cw + 1)
		m.backoffArmed = true
	}
	if m.backlogged || m.cur != nil {
		m.state = macContending
		if m.busy == 0 {
			m.armDIFS()
		}
	} else {
		m.state = macIdle
	}
}

// deliver hands a successfully decoded transmission to this node.
func (m *mac) deliver(tx *transmission) {
	f := tx.frame
	if f.isMACAck {
		if m.state == macWaitAck && f.To == m.node.id && f.ackFor.frame == m.cur {
			m.ackTimer.Cancel()
			cur := m.cur
			cur.Retries = m.retries
			m.cur = nil
			m.node.sim.Counters.UnicastSuccesses++
			m.postTxReset(true)
			m.node.proto.Sent(cur, true)
		}
		return
	}
	if f.To == m.node.id {
		// Acknowledge even duplicates (the sender missed our ACK).
		m.scheduleMACAck(tx)
		key := uint64(f.From)<<40 | f.seq
		if _, dup := m.seen[key]; dup {
			return
		}
		m.recordSeen(key)
		m.node.proto.Receive(f)
		return
	}
	// Broadcast or overheard unicast.
	if f.To != graph.Broadcast {
		key := uint64(f.From)<<40 | f.seq
		if _, dup := m.seen[key]; dup {
			return
		}
		m.recordSeen(key)
	}
	m.node.proto.Receive(f)
}

// scheduleMACAck sends the 802.11 ACK one SIFS after the data frame.
func (m *mac) scheduleMACAck(dataTx *transmission) {
	n := m.node
	n.sim.After(sifs, func() {
		if m.onAir > 0 || n.failed {
			return // radio busy (or dead); sender will time out and retry
		}
		ack := &Frame{
			From:     n.id,
			To:       dataTx.from.id,
			Bytes:    macAckBytes,
			isMACAck: true,
			ackFor:   dataTx,
		}
		n.sim.startTransmission(n, ack)
	})
}
