// Package telemetry is the structured observability plane: a typed,
// non-allocating event bus the simulator and every protocol layer emit
// into, a metrics registry that turns those events into per-node and
// per-flow counters and latency histograms (the per-packet percentiles and
// deadline-miss rates a streaming operator runs on — the numbers the
// paper's Click element logs could not produce), and a bounded per-node
// flight recorder whose recent-event rings the repair watchdogs dump as a
// structured post-mortem when a flow stalls.
//
// The overhead contract: with no sink installed (sim.Simulator.Telem nil)
// every emission site is a single nil check, and runs are byte-identical to
// the pre-telemetry code. With a Hub installed the cost is one fixed-size
// struct per event and one lookup of the node's record in a slice, with no
// allocation on the emit path beyond amortized ring/histogram storage.
// Telemetry is observation-only and never changes simulation behavior (the
// golden suite pins this). CI's cmd/morebench -telemetry-overhead step
// bounds the Hub's cost at 10 % on an 8 ms testbed transfer, a reading too
// noisy to hold and far from where the events are (ROADMAP item 17(c)).
package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Kind enumerates the typed events the simulation emits.
type Kind uint8

// The event taxonomy. Field use per kind is documented on Event.
const (
	// KindTx: a frame went on the air. Node is the transmitter, Peer the
	// MAC destination (-1 broadcast), Bytes the on-air size, Dur the air
	// time, Flow the attributed flow, Aux 1 for MAC-level ACK frames.
	KindTx Kind = iota
	// KindRx: a frame was successfully decoded. Node is the receiver,
	// Peer the transmitter.
	KindRx
	// KindDrop: a reception was lost at Node; Aux is a Drop* reason.
	KindDrop
	// KindEnqueue: the congestion layer admitted a data frame; Aux is the
	// queue depth after the admit.
	KindEnqueue
	// KindDequeue: the congestion layer released a queued frame to the
	// MAC; Dur is the time the frame waited in the queue.
	KindDequeue
	// KindQueueDrop: the congestion layer dropped a never-transmitted
	// frame; Aux is a QDrop* reason.
	KindQueueDrop
	// KindGrant: a credit grant went out; Aux is the advertised need.
	KindGrant
	// KindLSAFlood: a link-state advertisement (own or rebroadcast) went
	// out; Aux is the LSA origin.
	KindLSAFlood
	// KindBatchStart: a source started coding a batch (Flow, Batch).
	KindBatchStart
	// KindBatchDecode: a sink decoded a complete batch; Aux is the packet
	// count delivered by the decode.
	KindBatchDecode
	// KindReplan: a source rebuilt its forwarder plan or route; Aux is a
	// Replan* reason.
	KindReplan
	// KindPktSend: a batch-less source (Srcr) first offered sequence
	// number Aux for flow Flow.
	KindPktSend
	// KindPktDeliver: a batch-less destination delivered sequence number
	// Aux end-to-end.
	KindPktDeliver
	// KindNodeFail / KindNodeRecover: mid-run crash and reboot.
	KindNodeFail
	KindNodeRecover
	// KindStall: a repair watchdog declared the flow stalled at Node; Aux
	// is a Stall* reason. A Hub answers by dumping the node's flight
	// recorder (see StallDump).
	KindStall

	kindCount // sentinel
)

// Drop reasons (KindDrop.Aux).
const (
	DropCollision int64 = iota + 1
	DropChannel
)

// Queue-drop reasons (KindQueueDrop.Aux).
const (
	QDropTail int64 = iota + 1
	QDropChoke
	QDropStale
)

// Replan reasons (KindReplan.Aux).
const (
	// ReplanDrift: routing state moved on and the plan was rebuilt at a
	// batch/pass boundary.
	ReplanDrift int64 = iota + 1
	// ReplanStall: a repair watchdog rebuilt the plan on a stalled flow.
	ReplanStall
)

// Stall reasons (KindStall.Aux).
const (
	// StallBatch: a MORE/ExOR source saw no batch complete over a full
	// repair interval.
	StallBatch int64 = iota + 1
	// StallFin: a Srcr source's FIN passes went unanswered for a full
	// repair interval.
	StallFin
)

// String names the kind for rendered traces and dumps.
func (k Kind) String() string {
	switch k {
	case KindTx:
		return "tx"
	case KindRx:
		return "rx"
	case KindDrop:
		return "drop"
	case KindEnqueue:
		return "enqueue"
	case KindDequeue:
		return "dequeue"
	case KindQueueDrop:
		return "queue-drop"
	case KindGrant:
		return "grant"
	case KindLSAFlood:
		return "lsa-flood"
	case KindBatchStart:
		return "batch-start"
	case KindBatchDecode:
		return "batch-decode"
	case KindReplan:
		return "replan"
	case KindPktSend:
		return "pkt-send"
	case KindPktDeliver:
		return "pkt-deliver"
	case KindNodeFail:
		return "node-fail"
	case KindNodeRecover:
		return "node-recover"
	case KindStall:
		return "stall"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MarshalText renders the kind name in JSON dumps.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one typed simulation event. It is a fixed-size value type:
// emitting one never allocates, and the emitting layer fills only the
// fields its kind defines (the rest stay zero). Timestamps are int64
// nanoseconds of simulated time (sim.Time's underlying representation —
// this package must not import sim, which imports it).
type Event struct {
	// At is the simulated time in nanoseconds. Emission helpers
	// (sim.Node.Emit, sim.Simulator) stamp it; hand-built events should
	// too.
	At int64
	// Dur is the kind-specific duration payload in nanoseconds: air time
	// for KindTx, queue wait for KindDequeue.
	Dur int64
	// Aux is the kind-specific scalar: reason codes, queue depth,
	// sequence numbers, packet counts (see the Kind docs).
	Aux int64
	// Flow attributes the event to an end-to-end flow (0 = control).
	Flow uint32
	// Batch is the coded batch index for batch-keyed kinds.
	Batch uint32
	// Node is the node the event happened at: a node ID, never negative
	// (a Hub indexes its per-node records by it).
	Node int32
	// Peer is the other party where one exists (-1 broadcast/none).
	Peer int32
	// Bytes is the frame size for frame-shaped events.
	Bytes int32
	// Kind tags the event.
	Kind Kind
}

// Sink receives every emitted event. Implementations must be cheap: the
// simulator calls Emit inline from the event loop.
type Sink interface {
	Emit(Event)
}

// Config parameterizes a Hub. The metrics registry and the flight recorder
// (ringCap events per node) are always on; the zero value captures no
// Chrome trace.
type Config struct {
	// DeadlineNS, when positive, is the per-packet delivery deadline:
	// every delivered packet whose source-to-sink latency exceeds it
	// counts as a deadline miss in its flow's metrics.
	DeadlineNS int64
	// ChromeTrace turns on capture of events for WriteChromeTrace
	// (Perfetto-loadable trace-event JSON), up to chromeCap events. Off by
	// default: a long run emits millions of events.
	ChromeTrace bool
	// OnStall, when set, is called synchronously with each stall
	// post-mortem as the watchdog emits KindStall.
	OnStall func(StallDump)
}

// Hub is the standard Sink: it dispatches every event to the metrics
// registry, the per-node flight recorder, the optional Chrome trace
// buffer, and any extra sinks. A Hub is single-simulation state and is not
// safe for concurrent emission; the events and lastAt counters are atomic
// so a progress reporter on another goroutine may read them live.
type Hub struct {
	cfg Config

	events atomic.Int64
	lastAt atomic.Int64

	nodes []nodeState   // by node ID
	flows []flowMetrics // by flow ID
	// batchStart and pktSend correlate start events with their matching
	// decode/delivery: key flow<<32|batch (or |seq), value the first-seen
	// timestamp. Entries are deleted on the matching completion, so the
	// maps stay bounded by in-flight work.
	batchStart map[uint64]int64
	pktSend    map[uint64]int64

	chrome chromeState

	extra []Sink
}

// NewHub builds a Hub with the given configuration.
func NewHub(cfg Config) *Hub {
	return &Hub{cfg: cfg, batchStart: make(map[uint64]int64), pktSend: make(map[uint64]int64)}
}

// AddSink fans emitted events out to an additional sink (e.g. moresim's
// transmission log) after the Hub's own processing.
func (h *Hub) AddSink(s Sink) { h.extra = append(h.extra, s) }

// Events returns how many events the Hub has received. Safe to call from
// another goroutine (progress heartbeats).
func (h *Hub) Events() int64 { return h.events.Load() }

// LastAt returns the simulated timestamp (ns) of the most recent event.
// Safe to call from another goroutine.
func (h *Hub) LastAt() int64 { return h.lastAt.Load() }

// Emit implements Sink.
func (h *Hub) Emit(ev Event) {
	h.events.Add(1)
	h.lastAt.Store(ev.At)
	n := at(&h.nodes, ev.Node)
	n.ring.push(ev)
	h.count(n, ev)
	if ev.Kind == KindStall && h.cfg.OnStall != nil {
		h.cfg.OnStall(n.ring.dump(ev))
	}
	if h.cfg.ChromeTrace {
		h.chrome.observe(ev, chromeCap)
	}
	for _, s := range h.extra {
		s.Emit(ev)
	}
}

// at returns &(*s)[id], first growing *s with zero values to hold it.
func at[T any, I int32 | uint32](s *[]T, id I) *T {
	if int(id) >= len(*s) {
		*s = append(*s, make([]T, int(id)+1-len(*s))...)
	}
	return &(*s)[id]
}
