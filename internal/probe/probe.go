// Package probe implements the ETX measurement machinery the paper runs
// before each experiment (§4.1.2): every node periodically broadcasts small
// probe packets; receivers count them over a sliding window to estimate
// per-link delivery probabilities, which are then disseminated link-state
// style and fed to all three protocols.
//
// The estimator reproduces De Couto et al.'s method: the forward delivery
// ratio of link a->b is the fraction of a's probes b received during the
// last window. Probes are broadcast (no MAC ACK), so the measurement sees
// exactly the loss process data broadcasts see. Minimal probes would
// overestimate data delivery — the classic probe-size mismatch — so every
// probe is padded to the data size, as the Roofnet deployment padded its.
package probe

import (
	"math"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Fixed probing cadence: every run probes like the Roofnet deployment the
// paper's testbed measurement step copies (§4.1.2).
const (
	// interval between probe broadcasts per node (Roofnet used ~1 s with
	// jitter).
	interval = sim.Second
	// jitter randomizes each interval by ±jitter to avoid synchronization.
	jitter = 100 * sim.Millisecond
	// defaultWindow is the estimator window a zero Config.Window means
	// (De Couto et al.'s ETX averages the last 10 probes).
	defaultWindow = 10
	// padToBytes is every probe's on-air size: the 1500 B data size, so
	// the measured loss is the loss data frames see.
	padToBytes = 1500
)

// Config parameterizes the prober.
type Config struct {
	// Window is the number of most recent probe slots the estimator
	// averages over. Zero defaults to 10.
	Window int
	// DeadInterval, when positive, declares a neighbor dead after this much
	// probe silence: DeliveryFrom reports 0 for an origin not heard from in
	// DeadInterval, so a crashed neighbor's stale window contents cannot
	// keep its link alive in the learned view. A reborn neighbor's first
	// probe revives the estimate. Zero keeps the estimator purely
	// window-based (the original De Couto behavior, and the default).
	DeadInterval sim.Time
}

// DefaultConfig matches a Roofnet-like prober.
func DefaultConfig() Config {
	return Config{Window: defaultWindow}
}

// Prober is the per-node probing protocol. It can run standalone (for
// measurement-only simulations) and exposes the estimated delivery matrix.
type Prober struct {
	cfg     Config
	node    *sim.Node
	seq     uint32
	pending int        // probes due but not yet transmitted
	tick    *sim.Event // the probe clock, re-armed every tick

	// heard holds one record per origin a probe arrived from.
	heard map[graph.NodeID]*record
	// free holds probes Sent handed back, for Pull to reuse.
	free sim.FreeList[probeMsg]

	// ProbeTx counts probe broadcasts sent (measurement-plane overhead
	// accounting for the learned-vs-oracle gap experiments).
	ProbeTx int64
}

// record is what a prober knows of one origin's probes, reached with one map
// lookup.
type record struct {
	// window holds the sequence numbers heard within the window horizon.
	// Its capacity is Window+1: a fresh seq joins before the trim, and at
	// most Window distinct ones survive it.
	window []uint32
	// last is the highest sequence seen.
	last uint32
	// at is when the latest probe arrived (liveness input for
	// DeadInterval).
	at sim.Time
}

// probeMsg is a probe on the air: the wire fields and the frame that carries
// them, one object, recycled once Sent hands the frame back (poison).
type probeMsg struct {
	packet.Probe
	frame sim.Frame
}

// NewProber creates a prober; attach with sim.Attach. A zero Window is
// defaulted, so the zero Config is DefaultConfig().
func NewProber(cfg Config) *Prober {
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	return &Prober{cfg: cfg, heard: make(map[graph.NodeID]*record), free: sim.FreeList[probeMsg]{Reset: poison}}
}

// Init implements sim.Protocol.
func (p *Prober) Init(n *sim.Node) {
	p.node = n
	p.scheduleNext()
}

func (p *Prober) scheduleNext() {
	d := interval + sim.Time(p.node.Rand().Int63n(int64(2*jitter))) - jitter
	if p.tick == nil {
		p.tick = p.node.NewTimer(func() {
			// A failed radio generates no probes (its clock keeps running, so
			// a recovered node resumes on the next tick without a backlog
			// burst).
			if !p.node.Failed() {
				p.pending++
				p.node.Wake()
			}
			p.scheduleNext()
		})
	}
	p.tick.Reset(d)
}

// Receive implements sim.Protocol.
func (p *Prober) Receive(f *sim.Frame) {
	m, ok := f.Payload.(*probeMsg)
	if !ok {
		return
	}
	o := p.heard[m.Origin]
	if o == nil {
		o = &record{window: make([]uint32, 0, p.cfg.Window+1)}
		p.heard[m.Origin] = o
	}
	if p.node != nil { // tests drive Receive without a simulated node
		o.at = p.node.Now()
	}
	if m.Seq > o.last {
		o.last = m.Seq
	}
	// A replayed probe must count once: a window holding the same seq twice
	// would make DeliveryFrom report more arrivals than the origin sent.
	dup := false
	for _, s := range o.window {
		if s == m.Seq {
			dup = true
			break
		}
	}
	if !dup {
		o.window = append(o.window, m.Seq)
	}
	// Trim against the highest seq heard, not the arriving one: a late
	// reordered probe must not drag the horizon backward and re-admit (or
	// fail to evict) entries the window had already aged out.
	horizon := int64(o.last) - int64(p.cfg.Window)
	keep := o.window[:0]
	for _, s := range o.window {
		if int64(s) > horizon {
			keep = append(keep, s)
		}
	}
	o.window = keep
}

// Pull implements sim.Protocol: the next due probe, in a message off the
// free list, so once the list is warm a probe allocates nothing.
func (p *Prober) Pull() *sim.Frame {
	if p.pending == 0 {
		return nil
	}
	p.pending--
	p.seq++
	p.ProbeTx++
	m := p.free.Get()
	m.Probe = packet.Probe{Origin: p.node.ID(), Seq: p.seq, Window: uint16(p.cfg.Window)}
	m.frame = sim.Frame{
		From:    p.node.ID(),
		To:      graph.Broadcast,
		Bytes:   max(m.EncodedSize(), padToBytes),
		Payload: m,
	}
	return &m.frame
}

// Sent implements sim.Protocol: the probe is off the air and every receiver
// has read it, so it goes back on the free list.
func (p *Prober) Sent(f *sim.Frame, ok bool) {
	if m, mine := f.Payload.(*probeMsg); mine {
		p.free.Put(m)
	}
}

// poison is what a probe Sent handed back holds on the free list: no
// origin and a zero frame, so a read that outlives the frame finds nothing.
func poison(m *probeMsg) { *m = probeMsg{Probe: packet.Probe{Origin: -1}} }

// DeliveryFrom estimates the delivery probability of link origin -> this
// node: the fraction of the last Window probes that arrived. It returns
// 0 if nothing was heard from origin.
func (p *Prober) DeliveryFrom(origin graph.NodeID) float64 {
	o := p.heard[origin]
	if o == nil || o.last == 0 {
		return 0
	}
	// A standalone prober has no clock. One that has: silent past the
	// liveness horizon, the link is down.
	if p.cfg.DeadInterval > 0 && p.node != nil && p.node.Now()-o.at >= p.cfg.DeadInterval {
		return 0
	}
	last := o.last
	window := uint32(p.cfg.Window)
	if last < window {
		window = last
	}
	count := 0
	for _, s := range o.window {
		if s > last-window {
			count++
		}
	}
	if count > int(window) {
		count = int(window) // a ratio above 1.0 would poison ETX downstream
	}
	return float64(count) / float64(window)
}

// Measure runs a probing campaign over the topology for the given duration
// and returns the estimated delivery matrix. It is the simulated analogue
// of the paper's "we run the ETX measurement module for 10 minutes" step.
func Measure(topo *graph.Topology, cfg Config, simCfg sim.Config, duration sim.Time) *graph.Topology {
	s := sim.New(topo, simCfg)
	probers := make([]*Prober, topo.N())
	for i := range probers {
		probers[i] = NewProber(cfg)
		s.Attach(graph.NodeID(i), probers[i])
	}
	s.Run(duration)
	est := graph.New(topo.N())
	copy(est.Pos, topo.Pos)
	for i := 0; i < topo.N(); i++ {
		for j := 0; j < topo.N(); j++ {
			if i == j {
				continue
			}
			est.SetDirected(graph.NodeID(i), graph.NodeID(j),
				probers[j].DeliveryFrom(graph.NodeID(i)))
		}
	}
	return est
}

// MatrixError summarizes how far an estimated delivery matrix strays from
// the ground truth over links whose true delivery exceeds threshold.
func MatrixError(truth, est *graph.Topology, threshold float64) (meanAbs, maxAbs float64) {
	n := truth.N()
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || truth.Prob(graph.NodeID(i), graph.NodeID(j)) <= threshold {
				continue
			}
			d := math.Abs(truth.Prob(graph.NodeID(i), graph.NodeID(j)) - est.Prob(graph.NodeID(i), graph.NodeID(j)))
			meanAbs += d
			if d > maxAbs {
				maxAbs = d
			}
			count++
		}
	}
	if count > 0 {
		meanAbs /= float64(count)
	}
	return meanAbs, maxAbs
}
