// Package linkstate implements the dissemination half of the measurement
// pipeline (§3.2.1(b)): "Each node j can periodically measure the loss
// probabilities ε_ij for each of its neighbors via ping probes. These
// probabilities are distributed to other nodes in the network in a manner
// similar to link state protocols. Each node can then build the network
// graph annotated with the link loss probabilities."
//
// The Agent combines the probe estimator with sequence-numbered link-state
// advertisements flooded over the broadcast medium: each node periodically
// advertises its measured inbound delivery ratios; receivers rebroadcast
// LSAs they have not seen (with jitter, so floods do not synchronize), and
// every node converges to a shared loss-annotated topology from which it
// computes ETX/EOTX routes locally.
package linkstate

import (
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fixed dissemination parameters (no run varies them).
const (
	// floodJitter delays each advertisement and rebroadcast by a uniform
	// random amount, so one advertisement does not trigger a synchronized
	// burst.
	floodJitter = 200 * sim.Millisecond
	// minProb drops estimated links below this delivery ratio from the
	// advertisement (noise suppression).
	minProb float64 = 0.05
	// defaultAdvertiseInterval is what a zero Config.AdvertiseInterval
	// means (a Roofnet-like refresh).
	defaultAdvertiseInterval = 5 * sim.Second
	// maxQuietIntervals bounds flood damping: a damped node floods
	// regardless of change once maxQuietIntervals×AdvertiseInterval has
	// passed since its last flood (see Agent.maxQuiet).
	maxQuietIntervals = 6
)

// Config parameterizes the agent.
type Config struct {
	// Probe configures the underlying delivery-ratio measurement. The zero
	// value means probe.DefaultConfig().
	Probe probe.Config
	// AdvertiseInterval is how often a node floods a fresh LSA of its
	// inbound link estimates. Zero defaults to 5 s.
	AdvertiseInterval sim.Time

	// TriggerDelta enables flood damping: a fresh LSA is flooded only when
	// some link estimate moved by at least this much since the last
	// advertisement (or a link appeared/disappeared). Zero floods every
	// AdvertiseInterval, the undamped original behavior. Each advertise
	// tick that finds nothing moved is suppressed — no sequence bump, no
	// flood, no database churn at any node — so a converged network goes
	// quiet instead of refreshing n² frames per interval. A damped node
	// still floods once 6×AdvertiseInterval has passed since its last
	// flood, so newly joined listeners and lost floods eventually heal.
	TriggerDelta float64

	// MaxAge enables LSA aging: a database entry not refreshed for MaxAge
	// is purged (except the node's own), so a crashed origin's links drop
	// out of every learned view instead of persisting forever. The purged
	// origin's sequence state is kept, so a stale replayed flood cannot
	// resurrect the entry — only the origin itself, whose sequence keeps
	// advancing, re-installs it when it comes back. MaxAge must exceed
	// AdvertiseInterval or live nodes expire; NewAgent caps a damped node's
	// quiet period at MaxAge/2. Zero disables aging (the pre-churn
	// behavior, and the default).
	MaxAge sim.Time

	// ScopeRings enables fisheye-scoped flooding: ascending hop radii, one
	// per ring. Ring 0 (radius ScopeRings[0]) is refreshed on every other
	// advertise tick, ring 1 every fourth, and so on — a geometric cadence,
	// so near neighbors see every estimate move at full rate while distant
	// regions are refreshed by the slower rings and, network-wide, by the
	// periodic unscoped summary (SummaryInterval). Each scoped LSA carries
	// its radius as a TTL (packet.LSA.TTL) that forwarders decrement; the
	// flood dies at the ring boundary instead of costing n² frames. Empty
	// disables scoping: every flood is network-wide, the classic behavior
	// and the default.
	ScopeRings []int
	// SummaryInterval is the period of unscoped network-wide floods when
	// scoping is on — the "aggregated summary" distant regions converge
	// on. Zero defaults to 8×AdvertiseInterval; when aging is on it is
	// capped at MaxAge/2 so remote entries refresh before they expire.
	SummaryInterval sim.Time

	// Piggyback opportunistically attaches pending LSAs to outgoing
	// broadcast data frames (the sim.Piggybacker hand-off): an LSA waits up
	// to AdvertiseInterval/2 for a data frame to ride before falling back
	// to a dedicated flood, so a converged network moving traffic spends
	// almost zero dedicated control frames. Off by default.
	Piggyback bool
}

// DefaultConfig returns a Roofnet-like setup.
func DefaultConfig() Config {
	return Config{
		Probe:             probe.DefaultConfig(),
		AdvertiseInterval: defaultAdvertiseInterval,
	}
}

// Agent runs probing plus link-state flooding on one node.
type Agent struct {
	cfg    Config
	node   *sim.Node
	id     graph.NodeID // node.ID() (0 before Init), at hand for the heard-set test in accept
	n      int          // network size
	prober *probe.Prober

	seq        uint32
	pendingAdv lsaQueue                // own advertisement awaiting transmission
	pendingFwd lsaQueue                // LSAs to rebroadcast
	fwdFree    *fwdTimer               // jitter timers not waiting on an LSA, linked through next
	floodFree  sim.FreeList[sim.Frame] // flood frames Sent handed back, zeroed, for floodFrame to reuse

	// The periodic ticks, each one timer re-armed as it fires.
	advTimer, expiryTimer *sim.Event

	// The LSA database, dense by origin and split by how often a row is
	// read: every decoded LSA reads hot[origin] for the duplicate check, and
	// nine in ten stop there; only an installed one touches cold[origin].
	// Both are allocated on the first accept — n rows per agent, n agents —
	// so building a control plane stays cheap. known counts held LSAs.
	hot   []seqRow
	cold  []lsaRow
	known int

	// maxQuiet bounds flood damping (maxQuietIntervals×AdvertiseInterval,
	// capped at MaxAge/2 so a damped-quiet live node does not expire);
	// piggybackDelay bounds how long an LSA waits for a data-frame ride
	// (AdvertiseInterval/2). Both are derived by NewAgent and zero when
	// damping or piggybacking is off.
	maxQuiet       sim.Time
	piggybackDelay sim.Time

	// advertise's scratch: one tick's neighbors above minProb, ascending,
	// and their raw estimates.
	advIDs []graph.NodeID
	advEst []float64

	// Damping state: the neighbors and raw estimates as last flooded, in
	// the same ascending form, and when.
	lastIDs    []graph.NodeID
	lastEst    []float64
	lastAdvAt  sim.Time
	advertised bool

	// Fisheye cadence state: advTick counts advertise ticks (the ring
	// selector), lastSummaryAt/summarized track the periodic unscoped
	// summary flood.
	advTick       uint64
	lastSummaryAt sim.Time
	summarized    bool

	// SuppressedAdv counts advertise ticks damped away (estimates within
	// TriggerDelta of the last flood).
	SuppressedAdv int64

	// PiggyTx counts LSAs that rode outgoing data frames instead of costing
	// a dedicated flood transmission.
	PiggyTx int64

	// ExpiredLSAs counts database entries purged by MaxAge aging.
	ExpiredLSAs int64

	// version counts LSA database changes; View uses it to decide when a
	// cached topology and its route tables are stale.
	version uint64

	// FloodTx counts LSA transmissions (own + rebroadcasts).
	FloodTx int64
}

// seqRow is an origin's replay horizon: the newest sequence accepted from it.
// It survives expiry of the database entry.
type seqRow struct {
	seq  uint32
	seen bool
}

// lsaRow is an origin's database entry (nil once aged out) and when it was
// installed, the aging input for MaxAge.
type lsaRow struct {
	lsa        *packet.LSA
	receivedAt sim.Time
}

// pendingLSA is an LSA queued for transmission. due is when a dedicated
// flood becomes allowed: zero (the non-piggyback default) means immediately;
// with piggybacking on, the LSA waits for a data-frame ride until due.
type pendingLSA struct {
	lsa *packet.LSA
	due sim.Time
}

// fwdTimer is one accepted LSA waiting out its rebroadcast jitter: the timer,
// bound to the record once, and the LSA it will queue. A record is on the
// agent's fwdFree list exactly while its timer is not pending — it has one
// firing at a time, so Node.NewTimer and Event.Reset fit, and a node holding
// several LSAs in jitter at once holds as many records. The list is linked
// through the records, so taking and returning one touches no memory but
// the record: at 512 nodes every line a forward touches is a cold one.
type fwdTimer struct {
	ev   *sim.Event
	lsa  *packet.LSA
	next *fwdTimer // the free list's link; nil while the timer is pending
}

// NewAgent creates an agent for a network of n nodes. Zero fields that
// document a default get it one by one; every other field is taken as
// written.
func NewAgent(cfg Config, n int) *Agent {
	if cfg.AdvertiseInterval == 0 {
		cfg.AdvertiseInterval = defaultAdvertiseInterval
	}
	if len(cfg.ScopeRings) > 0 && cfg.SummaryInterval == 0 {
		cfg.SummaryInterval = 8 * cfg.AdvertiseInterval
	}
	if cfg.MaxAge > 0 && cfg.SummaryInterval >= cfg.MaxAge {
		cfg.SummaryInterval = cfg.MaxAge / 2 // remote entries must refresh before expiring
	}
	a := &Agent{
		cfg:    cfg,
		n:      n,
		prober: probe.NewProber(cfg.Probe, n),
	}
	if cfg.TriggerDelta > 0 {
		a.maxQuiet = maxQuietIntervals * cfg.AdvertiseInterval
		if cfg.MaxAge > 0 && a.maxQuiet >= cfg.MaxAge {
			a.maxQuiet = cfg.MaxAge / 2 // a damped-quiet live node must not expire
		}
	}
	if cfg.Piggyback {
		a.piggybackDelay = cfg.AdvertiseInterval / 2
	}
	return a
}

// Init implements sim.Protocol.
func (a *Agent) Init(node *sim.Node) {
	a.node, a.id = node, node.ID()
	a.prober.Init(node)
	a.scheduleAdvertise()
	if a.cfg.MaxAge > 0 {
		a.scheduleExpiry()
	}
}

// scheduleExpiry runs the aging sweep at a quarter of MaxAge, bounding how
// long past its horizon a dead entry can linger. The timer exists only when
// aging is enabled, so the default configuration's event stream (and every
// pinned golden) is untouched.
func (a *Agent) scheduleExpiry() {
	period := a.cfg.MaxAge / 4
	if period <= 0 {
		period = sim.Time(1)
	}
	if a.expiryTimer == nil {
		a.expiryTimer = a.node.NewTimer(func() {
			a.expire()
			a.scheduleExpiry()
		})
	}
	a.expiryTimer.Reset(period)
}

// expire purges database entries older than MaxAge. The node's own entry
// never expires (its refresh may be damped for up to maxQuiet); sequence
// state survives the purge so only a genuinely fresher flood — the reborn
// origin's own, whose sequence kept advancing — re-installs an origin.
func (a *Agent) expire() {
	for origin := range a.cold {
		row := &a.cold[origin]
		if row.lsa == nil || graph.NodeID(origin) == a.node.ID() || a.node.Now()-row.receivedAt < a.cfg.MaxAge {
			continue
		}
		*row = lsaRow{}
		a.known--
		a.ExpiredLSAs++
		a.version++
	}
}

func (a *Agent) scheduleAdvertise() {
	d := a.cfg.AdvertiseInterval + sim.Time(a.node.Rand().Int63n(int64(floodJitter)))
	if a.advTimer == nil {
		a.advTimer = a.node.NewTimer(func() {
			a.advertise()
			a.scheduleAdvertise()
		})
	}
	a.advTimer.Reset(d)
}

// advertise queues a fresh LSA of this node's inbound link estimates —
// unless damping is on and nothing moved past the trigger threshold since
// the last flood (triggered updates; the periodic tick doubles as the
// hold-down, and maxQuiet bounds how long an unchanged node stays quiet).
//
// One ascending pass collects the estimates into the agent's scratch; only
// an advertisement that goes out allocates, and then exactly what it floods.
func (a *Agent) advertise() {
	a.advIDs, a.advEst = a.advIDs[:0], a.advEst[:0]
	for i := 0; i < a.n; i++ {
		id := graph.NodeID(i)
		if id == a.node.ID() {
			continue
		}
		p := a.prober.DeliveryFrom(id)
		if p < minProb {
			continue
		}
		a.advIDs = append(a.advIDs, id)
		a.advEst = append(a.advEst, p)
	}
	a.advTick++
	ids, est := a.advIDs, a.advEst
	if a.cfg.TriggerDelta > 0 {
		// A due network-wide summary bypasses damping: under scoped flooding
		// the periodic summary is the only refresh distant regions ever see,
		// and a quiet period must not starve them onto bootstrap-era state.
		if !a.summaryDue(a.node.Now()) && a.damped() {
			a.SuppressedAdv++
			return
		}
		// What goes out becomes the reference; the old reference is the
		// next tick's scratch.
		a.lastIDs, a.advIDs = a.advIDs, a.lastIDs
		a.lastEst, a.advEst = a.advEst, a.lastEst
		a.lastAdvAt = a.node.Now()
		a.advertised = true
	}
	a.seq++
	lsa := &packet.LSA{
		Origin:    a.node.ID(),
		Seq:       a.seq,
		Neighbors: make([]graph.NodeID, len(ids)),
		Probs:     make([]uint8, len(est)),
		Heard:     newHeardSet(a.n),
	}
	copy(lsa.Neighbors, ids)
	for i, p := range est {
		lsa.Probs[i] = packet.QuantizeProb(p)
	}
	lsa.TTL = a.scopeTTL(a.node.Now())
	a.accept(lsa)
	if a.node.Failed() {
		// A dead radio cannot drain its queue; keep only the newest own LSA
		// so arbitrarily long outages do not grow the backlog. On recovery
		// the single queued advertisement re-announces the node.
		a.pendingAdv.reset()
	}
	a.pendingAdv.push(pendingLSA{lsa: lsa, due: a.holdUntil()})
	a.node.Wake()
}

// scopeTTL picks the flood radius for this advertise tick. With scoping off
// it always returns 0 (unscoped). With scoping on, a network-wide summary
// (TTL 0) goes out on the first flood and then every SummaryInterval; the
// ticks between are scoped on the fisheye cadence — ring 0 on every odd
// tick, ring 1 on every second even tick, and so on geometrically, so the
// smallest radius refreshes most often.
// summaryDue reports whether the next advertisement must be a network-wide
// summary: scoping is on and either no summary has ever gone out (bootstrap)
// or the last one is a full SummaryInterval old. Pure predicate — scopeTTL
// does the bookkeeping when the summary actually goes out.
func (a *Agent) summaryDue(now sim.Time) bool {
	if len(a.cfg.ScopeRings) == 0 {
		return false
	}
	return !a.summarized || now-a.lastSummaryAt >= a.cfg.SummaryInterval
}

func (a *Agent) scopeTTL(now sim.Time) uint8 {
	if len(a.cfg.ScopeRings) == 0 {
		return 0
	}
	if a.summaryDue(now) {
		a.summarized = true
		a.lastSummaryAt = now
		return 0
	}
	level := 0
	for t := a.advTick; t&1 == 0 && level < len(a.cfg.ScopeRings)-1; t >>= 1 {
		level++
	}
	r := a.cfg.ScopeRings[level]
	if r < 1 {
		r = 1
	}
	if r > 255 {
		r = 255
	}
	return uint8(r)
}

// holdUntil is the dedicated-flood deadline for a newly queued LSA: now when
// piggybacking is off, now+piggybackDelay when it may catch a data ride.
func (a *Agent) holdUntil() sim.Time {
	if !a.cfg.Piggyback {
		return 0
	}
	due := a.node.Now() + a.piggybackDelay
	// The node may go idle before the deadline; make sure the MAC pulls
	// again once the fallback flood becomes eligible.
	a.node.WakeAfter(a.piggybackDelay + 1)
	return due
}

// damped reports whether this advertise tick should be suppressed: damping
// enabled, a previous flood exists and is younger than maxQuiet, it named
// the same neighbors as this tick's scratch, and every estimate is within
// TriggerDelta of what it said. Both neighbor lists are ascending, so equal
// sets are equal lists.
func (a *Agent) damped() bool {
	if a.cfg.TriggerDelta <= 0 || !a.advertised {
		return false
	}
	if a.node.Now()-a.lastAdvAt >= a.maxQuiet {
		return false
	}
	if len(a.advIDs) != len(a.lastIDs) {
		return false
	}
	for i, id := range a.advIDs {
		p, last := a.advEst[i], a.lastEst[i]
		if id != a.lastIDs[i] || p-last >= a.cfg.TriggerDelta || last-p >= a.cfg.TriggerDelta {
			return false
		}
	}
	return true
}

// serialNewer reports whether sequence a is newer than b under RFC 1982
// serial-number arithmetic: the comparison stays correct when a uint32
// sequence wraps (a crash-looping origin, or a soak run long enough to pass
// 2³²), where a plain <= would reject every genuine LSA forever.
func serialNewer(a, b uint32) bool {
	return a != b && int32(a-b) > 0
}

// newHeardSet allocates an advertisement's heard-set. A variable so that a
// test can strip the set and compare a run against the unfiltered path.
var newHeardSet = graph.NewNodeSet

// accept installs an LSA in the local database if it is new and well formed:
// an origin or neighbor outside the network, or fewer probabilities than
// neighbors, would index out of range when Topology rebuilds the graph.
//
// Most calls are a node hearing the same flood again from another neighbor,
// so the advertisement's heard-set is asked first: all receivers of a frame
// test the same few words, where hot[origin] is a cache miss per receiver.
// The answer is exact. A node that has run accept on (origin, s) either
// found it malformed — and would again, the copies of a flood differ only in
// TTL — or holds hot.seq serial-≥ s from then on, on the one assumption that
// fewer than 2³¹ advertisements of one origin pass between two receptions of
// one flood.
func (a *Agent) accept(l *packet.LSA) bool {
	if l.Heard.Add(a.id) {
		return false
	}
	if uint(l.Origin) >= uint(len(a.hot)) {
		if uint(l.Origin) >= uint(a.n) {
			return false
		}
		a.hot = make([]seqRow, a.n)
		a.cold = make([]lsaRow, a.n)
	}
	hot := &a.hot[l.Origin]
	if hot.seen && !serialNewer(l.Seq, hot.seq) {
		return false
	}
	if len(l.Probs) < len(l.Neighbors) {
		return false
	}
	for _, nb := range l.Neighbors {
		if uint(nb) >= uint(a.n) {
			return false
		}
	}
	*hot = seqRow{seq: l.Seq, seen: true}
	row := &a.cold[l.Origin]
	if row.lsa == nil {
		a.known++
	}
	row.lsa = l
	if a.node != nil { // tests drive accept without a simulated node
		row.receivedAt = a.node.Now()
	}
	a.version++
	return true
}

// seqOf returns the newest sequence accepted from origin (0 if none).
func (a *Agent) seqOf(origin graph.NodeID) uint32 {
	if uint(origin) >= uint(len(a.hot)) {
		return 0
	}
	return a.hot[origin].seq
}

// Node returns the simulated node this agent runs on (nil before Init).
func (a *Agent) Node() *sim.Node { return a.node }

// ProbeTx returns how many probe broadcasts the underlying prober has sent.
func (a *Agent) ProbeTx() int64 { return a.prober.ProbeTx }

// Receive implements sim.Protocol.
func (a *Agent) Receive(f *sim.Frame) {
	for _, p := range f.Piggyback {
		if m, ok := p.(*packet.LSA); ok {
			a.handleLSA(m)
		}
	}
	switch m := f.Payload.(type) {
	case *packet.LSA:
		a.handleLSA(m)
	default:
		a.prober.Receive(f)
	}
}

// handleLSA installs a received LSA (dedicated flood or piggybacked ride)
// and schedules its rebroadcast. A scoped LSA is forwarded with the TTL
// decremented on its outward copy — the broadcast frame's payload pointer is
// shared with every other receiver and with this node's own database, and
// every forwarder of it floods the same one copy — and dies at the ring
// boundary (TTL 1) instead of flooding the whole network.
func (a *Agent) handleLSA(m *packet.LSA) {
	if !a.accept(m) {
		return
	}
	if m.TTL == 1 {
		return // scope boundary: install locally, do not re-flood
	}
	fwd := m
	if m.TTL > 1 {
		fwd = m.Outward()
	}
	// Rebroadcast after jitter.
	delay := sim.Time(a.node.Rand().Int63n(int64(floodJitter)))
	t := a.takeFwdTimer()
	t.lsa = fwd
	t.ev.Reset(delay)
}

// takeFwdTimer takes a record off the free list, or makes one and binds its
// timer: the Event and the closure are per record, not per LSA forwarded.
func (a *Agent) takeFwdTimer() *fwdTimer {
	if t := a.fwdFree; t != nil {
		a.fwdFree, t.next = t.next, nil
		return t
	}
	t := new(fwdTimer)
	t.ev = a.node.NewTimer(func() { a.forwardDue(t) })
	return t
}

// forwardDue runs when an LSA's jitter is over: the record goes back on the
// free list, and the LSA is queued for flooding if it is still the freshest
// this node knows of its origin.
func (a *Agent) forwardDue(t *fwdTimer) {
	fwd := t.lsa
	t.lsa = nil
	t.next, a.fwdFree = a.fwdFree, t
	if a.seqOf(fwd.Origin) == fwd.Seq {
		a.pendingFwd.push(pendingLSA{lsa: fwd, due: a.holdUntil()})
		a.node.Wake()
	}
}

// Pull implements sim.Protocol: own advertisements, then rebroadcasts,
// then probes. With piggybacking on, queued LSAs whose ride deadline has
// not passed are skipped — they wait for a data frame — but never block the
// prober behind them.
func (a *Agent) Pull() *sim.Frame {
	now := a.node.Now()
	if l := a.pendingAdv.popDue(now); l != nil {
		return a.floodFrame(l)
	}
	if l := a.pendingFwd.popDue(now); l != nil {
		return a.floodFrame(l)
	}
	return a.prober.Pull()
}

// lsaQueue is a FIFO of pending LSAs in a ring: n live entries from
// buf[head] on, wrapping at the end. A pop is O(1) and copies nothing; a
// push into a full ring doubles it, so a warm queue never reallocates.
type lsaQueue struct {
	buf     []pendingLSA // len(buf) is a power of two, or zero
	head, n int
}

func (q *lsaQueue) len() int { return q.n }

func (q *lsaQueue) push(p pendingLSA) {
	if q.n == len(q.buf) {
		buf := make([]pendingLSA, max(2*len(q.buf), 4))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// pop removes and returns the head of a non-empty queue; the slot lets go
// of its LSA.
func (q *lsaQueue) pop() *packet.LSA {
	l := q.buf[q.head].lsa
	q.buf[q.head] = pendingLSA{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return l
}

// popDue pops the head if its dedicated-flood deadline is not after now, and
// returns nil otherwise. Entries are pushed in time order, so the head
// always has the earliest deadline.
func (q *lsaQueue) popDue(now sim.Time) *packet.LSA {
	if q.n == 0 || q.buf[q.head].due > now {
		return nil
	}
	return q.pop()
}

// reset empties the queue, dropping every LSA it held.
func (q *lsaQueue) reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// floodFrame frames l in a frame off the agent's free list: once the list is
// warm a flood allocates nothing. The LSA itself is shared, never recycled:
// every receiver's database may hold it.
func (a *Agent) floodFrame(l *packet.LSA) *sim.Frame {
	a.FloodTx++
	a.node.Emit(telemetry.Event{Aux: int64(l.Origin), Kind: telemetry.KindLSAFlood})
	f := a.floodFree.Get()
	// A receiver in the heard-set would drop the copy at accept's first
	// test, and no other layer reads an LSA: the medium need not hand it up.
	*f = sim.Frame{From: a.node.ID(), To: graph.Broadcast, Bytes: l.EncodedSize(), Payload: l, Heard: l.Heard}
	return f
}

// piggybackMax bounds how many pending LSAs ride one data frame, so a
// backlog cannot balloon a single frame's airtime.
const piggybackMax = 4

// Piggyback implements sim.Piggybacker: pending LSAs hitch a ride on a
// broadcast data frame another layer is about to transmit. Every decoding
// neighbor sees the ride exactly like a dedicated flood — same payloads,
// zero extra frames — so a converged network moving data pays almost no
// dedicated control transmissions.
func (a *Agent) Piggyback(f *sim.Frame) {
	if !a.cfg.Piggyback || f.To != graph.Broadcast {
		return
	}
	for n := 0; n < piggybackMax; n++ {
		var l *packet.LSA
		if a.pendingAdv.len() > 0 {
			l = a.pendingAdv.pop()
		} else if a.pendingFwd.len() > 0 {
			l = a.pendingFwd.pop()
		} else {
			return
		}
		f.Piggyback = append(f.Piggyback, l)
		f.Bytes += l.EncodedSize()
		a.PiggyTx++
	}
}

// Sent implements sim.Protocol: a flood frame goes back on the free list,
// zeroed, so a read that outlives it finds no payload; a probe goes back to
// the prober.
func (a *Agent) Sent(f *sim.Frame, ok bool) {
	if _, flood := f.Payload.(*packet.LSA); flood {
		a.floodFree.Put(f)
	} else {
		a.prober.Sent(f, ok)
	}
	if a.pendingAdv.len() > 0 || a.pendingFwd.len() > 0 {
		a.node.Wake()
	}
}

// KnownOrigins returns how many nodes' LSAs this agent holds (including
// its own).
func (a *Agent) KnownOrigins() int { return a.known }

// Topology reconstructs this node's local view of the loss-annotated
// network graph from its LSA database. Unknown links are 0.
//
// An LSA reports delivery of nb -> origin, so origin lands in nb's out-row.
// The rows are built in one pass: counted, cut from one backing array, then
// filled in ascending origin order, which keeps every row sorted. A
// neighbor an LSA names twice overwrites its entry, or removes it at
// probability 0, and a self-link is skipped — what graph.SetDirected does.
func (a *Agent) Topology() *graph.Topology {
	count := make([]int, a.n)
	total := 0
	for origin, row := range a.cold {
		if row.lsa == nil {
			continue
		}
		for i, nb := range row.lsa.Neighbors {
			if nb != graph.NodeID(origin) && row.lsa.Probs[i] > 0 {
				count[nb]++
				total++
			}
		}
	}
	out := make([][]graph.Edge, a.n)
	edges := make([]graph.Edge, total)
	off := 0
	for nb, c := range count {
		out[nb] = edges[off : off : off+c]
		off += c
	}
	for origin, row := range a.cold {
		if row.lsa == nil {
			continue
		}
		to := graph.NodeID(origin)
		for i, nb := range row.lsa.Neighbors {
			if nb == to {
				continue
			}
			p := packet.UnquantizeProb(row.lsa.Probs[i])
			r := out[nb]
			switch {
			case len(r) > 0 && r[len(r)-1].Node == to && p > 0:
				r[len(r)-1].P = p
			case len(r) > 0 && r[len(r)-1].Node == to:
				out[nb] = r[:len(r)-1]
			case p > 0:
				out[nb] = append(r, graph.Edge{Node: to, P: p})
			}
		}
	}
	return graph.FromRows(out)
}

// Run floods a whole network for duration and returns the agents, one per
// node — the simulated analogue of letting Roofnet's link-state layer
// converge before starting an experiment.
func Run(topo *graph.Topology, cfg Config, simCfg sim.Config, duration sim.Time) []*Agent {
	s := sim.New(topo, simCfg)
	agents := make([]*Agent, topo.N())
	for i := range agents {
		agents[i] = NewAgent(cfg, topo.N())
		s.Attach(graph.NodeID(i), agents[i])
	}
	s.Run(duration)
	return agents
}
