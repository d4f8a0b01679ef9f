// Package flow holds the pieces shared by all three protocols under test:
// deterministic file workloads, transfer results, and the link-state oracle
// that stands in for the ETX measurement + dissemination machinery the paper
// runs before each experiment (§4.1.2).
package flow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// ID identifies a flow end to end.
type ID uint32

// File is a deterministic pseudorandom workload split into packets.
type File struct {
	Seed    int64
	Bytes   int
	PktSize int

	// content holds the file's bytes once generated; every copy of a File
	// made by NewFile shares it. A literal File{…} has none and generates
	// its bytes on each Payloads call.
	content *content
}

// content is a file's bytes, generated on first use. The Once makes the
// first use safe from any goroutine: parallel experiment workers may hold
// copies of one File.
type content struct {
	once  sync.Once
	bytes []byte
}

// NewFile describes a file of the given size carried in pktSize-byte
// packets (the paper transfers 5 MB files in 1500 B packets).
func NewFile(bytes, pktSize int, seed int64) File {
	return File{Seed: seed, Bytes: bytes, PktSize: pktSize, content: new(content)}
}

// NumPackets returns the number of packets the file splits into.
func (f File) NumPackets() int {
	return (f.Bytes + f.PktSize - 1) / f.PktSize
}

// TailSize returns the size of the final packet's payload: PktSize for an
// aligned file, the remainder otherwise.
func (f File) TailSize() int {
	if rem := f.Bytes % f.PktSize; rem != 0 {
		return rem
	}
	return f.PktSize
}

// Payloads returns the packet payloads. Every call returns identical
// contents, so receivers can verify byte-exact delivery. The payloads carry
// exactly Bytes bytes in total: when Bytes is not a multiple of PktSize the
// final payload is truncated to the remainder, never padded — so byte-based
// delivery accounting and content verification see the real file, not a
// rounded-up one. (Protocols that need fixed-size symbols — MORE's network
// coding — pad internally on the wire and strip the padding at delivery.)
//
// The payloads are views into one array that every Payloads call on a
// NewFile-made File shares, so their bytes are read-only to every caller.
// The outer slice is the caller's own (MORE's source replaces its last
// element with a padded copy), and each view's capacity ends where it does,
// so an append copies instead of running into the next packet.
func (f File) Payloads() [][]byte {
	var buf []byte
	if c := f.content; c != nil {
		c.once.Do(func() { c.bytes = generate(f.Seed, f.Bytes) })
		buf = c.bytes
	} else {
		buf = generate(f.Seed, f.Bytes)
	}
	out := make([][]byte, f.NumPackets())
	for i := range out {
		lo := i * f.PktSize
		hi := min(lo+f.PktSize, len(buf))
		out[i] = buf[lo:hi:hi]
	}
	return out
}

// generate returns the first n bytes math/rand's Rand.Read yields for the
// seed, in any split into calls: Read hands out each Source.Int63 value as
// seven little-endian bytes and carries the unused ones into the next call,
// so one contiguous fill equals the per-packet Reads it replaces.
// TestPayloadsMatchMathRand pins the equality against rand.Read itself.
func generate(seed int64, n int) []byte {
	src := rand.NewSource(seed)
	buf := make([]byte, n)
	i := 0
	// While eight bytes fit, store the whole value; the next store
	// overwrites the eighth.
	for ; i+8 <= n; i += 7 {
		binary.LittleEndian.PutUint64(buf[i:], uint64(src.Int63()))
	}
	for i < n {
		v := src.Int63()
		for k := 0; k < 7 && i < n; k++ {
			buf[i] = byte(v)
			v >>= 8
			i++
		}
	}
	return buf
}

// VerifyPayload checks a delivered payload against the expected one. got
// may carry trailing wire padding (fixed-size coded symbols); it matches
// when it is at least as long as want and starts with want's bytes.
func VerifyPayload(got, want []byte) bool {
	return len(got) >= len(want) && bytes.Equal(got[:len(want)], want)
}

// Result reports a transfer's outcome, common to MORE, ExOR, and Srcr runs.
type Result struct {
	Src, Dst graph.NodeID
	// PacketsDelivered counts native packets handed to the destination's
	// upper layer.
	PacketsDelivered int
	// PacketsTotal is the number of packets in the workload.
	PacketsTotal int
	// Completed reports whether the whole file arrived.
	Completed bool
	// Start and End bound the transfer (End is delivery of the last
	// packet, or the run deadline for incomplete transfers).
	Start, End sim.Time
	// Transmissions counts data-frame transmissions attributable to the
	// run (including MAC retries).
	Transmissions int64
	// Verified reports whether delivered payload bytes matched the file.
	Verified bool
}

// Duration returns the transfer's elapsed time.
func (r Result) Duration() sim.Time {
	if r.End <= r.Start {
		return 0
	}
	return r.End - r.Start
}

// Throughput returns delivered packets per second, the paper's throughput
// unit (Figures 4-2 … 4-7).
func (r Result) Throughput() float64 {
	d := r.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.PacketsDelivered) / d
}

// TxPerPacket returns data transmissions per delivered packet, the cost
// measure of Chapter 5.
func (r Result) TxPerPacket() float64 {
	if r.PacketsDelivered == 0 {
		return 0
	}
	return float64(r.Transmissions) / float64(r.PacketsDelivered)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("flow %d->%d: %d/%d pkts in %v (%.1f pkt/s, %.2f tx/pkt, completed=%v)",
		r.Src, r.Dst, r.PacketsDelivered, r.PacketsTotal, r.Duration(),
		r.Throughput(), r.TxPerPacket(), r.Completed)
}

// RoutingState is the link-state view a protocol instance routes from: the
// loss-annotated topology it builds forwarder plans over, plus the cached
// shortest-path queries used for ACK routing and source routes. Two
// implementations exist. Oracle (below) is the global ground-truth table the
// paper's §4.1.2 pre-measurement step stands in for: one shared instance,
// perfect knowledge, Version forever 0. linkstate.View is the deployable
// alternative of §3.2.1(b): one instance per node, built solely from probes
// and LSA floods received over the air, re-converging as estimates drift —
// Version ticks on every recomputation so protocols know to refresh plans.
type RoutingState interface {
	// Graph returns the loss-annotated topology this view currently
	// believes in. Callers must treat it as read-only; implementations may
	// return a shared or cached instance.
	Graph() *graph.Topology
	// NextHop returns the best ETX next hop from cur toward dst, or -1
	// when dst is unreachable in this view (or cur == dst).
	NextHop(cur, dst graph.NodeID) graph.NodeID
	// Path returns the best ETX path from src to dst (inclusive), or nil.
	Path(src, dst graph.NodeID) []graph.NodeID
	// Version identifies the state generation. It increases whenever the
	// view's topology changes; a constant 0 marks a static view. Sources
	// compare it between batches to decide whether to rebuild their
	// forwarding plans.
	Version() uint64
}

// Oracle is the shared link-state view every node routes from. The paper
// measures pairwise delivery probabilities once and feeds the same values
// to Srcr, MORE, and ExOR; Oracle plays that role and caches the
// shortest-path tables protocols use for ACK routing and path selection.
// It implements RoutingState with perfect global knowledge and Version 0.
type Oracle struct {
	Topo *graph.Topology
	Opt  routing.ETXOptions

	tables  map[graph.NodeID]*routing.ETXTable
	version uint64
}

// NewOracle builds an oracle over the topology with the given ETX options.
func NewOracle(t *graph.Topology, opt routing.ETXOptions) *Oracle {
	return &Oracle{Topo: t, Opt: opt, tables: make(map[graph.NodeID]*routing.ETXTable)}
}

// Graph implements RoutingState: the ground-truth topology.
func (o *Oracle) Graph() *graph.Topology { return o.Topo }

// Version implements RoutingState. It stays 0 — the static perfect-oracle
// case — until Invalidate is called after a topology mutation.
func (o *Oracle) Version() uint64 { return o.version }

// Invalidate discards the cached shortest-path tables and bumps the state
// version, so protocols rebuild plans and routes at their next boundary.
// Scenario schedules call it after mutating the ground-truth topology
// mid-run (link degradation, node failure): the oracle abstraction is
// "everyone instantly knows the truth", so the truth changing must reach
// every consumer.
func (o *Oracle) Invalidate() {
	o.tables = make(map[graph.NodeID]*routing.ETXTable)
	o.version++
}

// Table returns (computing on first use) the ETX table toward dst.
func (o *Oracle) Table(dst graph.NodeID) *routing.ETXTable {
	tab, ok := o.tables[dst]
	if !ok {
		tab = routing.ETXToDestination(o.Topo, dst, o.Opt)
		o.tables[dst] = tab
	}
	return tab
}

// NextHop returns the best next hop from cur toward dst, or -1 if
// unreachable (or cur == dst).
func (o *Oracle) NextHop(cur, dst graph.NodeID) graph.NodeID {
	if cur == dst {
		return -1
	}
	return o.Table(dst).Next[cur]
}

// Path returns the best ETX path from src to dst.
func (o *Oracle) Path(src, dst graph.NodeID) []graph.NodeID {
	return o.Table(dst).Path(src)
}
