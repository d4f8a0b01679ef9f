// Package flow holds the pieces shared by all three protocols under test:
// deterministic file workloads, transfer results, and the link-state oracle
// that stands in for the ETX measurement + dissemination machinery the paper
// runs before each experiment (§4.1.2).
package flow

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// ID identifies a flow end to end.
type ID uint32

// File is a deterministic pseudorandom workload split into packets. It is a
// plain value that holds no bytes: packet i's content is a pure function of
// (Seed, i), so a source makes only the packets it may still send and a sink
// verifies a delivery by regenerating it. The packets carry exactly Bytes
// bytes in total: when Bytes is not a multiple of PktSize the final packet is
// truncated to the remainder, never padded, so byte-based delivery
// accounting and content verification see the real file. (MORE's network
// coding needs equal-length symbols; Fill zero-pads for it.)
type File struct {
	Seed    int64
	Bytes   int
	PktSize int
}

// NewFile describes a file of the given size carried in pktSize-byte
// packets (the paper transfers 5 MB files in 1500 B packets).
func NewFile(bytes, pktSize int, seed int64) File {
	return File{Seed: seed, Bytes: bytes, PktSize: pktSize}
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

// PacketSize returns packet i's length: PktSize, TailSize for the last
// packet, and 0 for an index outside the file.
func (f File) PacketSize(i int) int {
	n := f.NumPackets()
	switch {
	case i < 0 || i >= n:
		return 0
	case i == n-1:
		return f.TailSize()
	}
	return f.PktSize
}

// Fill writes packet i into dst and zeroes the rest of dst: the zero pad
// MORE's coding adds to a short final packet. It panics if i is outside the
// file or dst is shorter than the packet.
func (f File) Fill(i int, dst []byte) {
	n := f.PacketSize(i)
	if n == 0 || len(dst) < n {
		panic(fmt.Sprintf("flow: Fill of packet %d (%d B) into %d B", i, n, len(dst)))
	}
	fill(f.key(i), dst[:n])
	clear(dst[n:])
}

// Packets returns packets lo through hi-1 as views into one fresh array.
// Each view's capacity ends where it does, so an append copies instead of
// running into the next packet. It panics on a range outside the file.
func (f File) Packets(lo, hi int) [][]byte {
	if lo < 0 || lo > hi || hi > f.NumPackets() {
		panic(fmt.Sprintf("flow: packets [%d, %d) of a %d-packet file", lo, hi, f.NumPackets()))
	}
	buf := make([]byte, min(hi*f.PktSize, f.Bytes)-lo*f.PktSize)
	out := make([][]byte, hi-lo)
	for k := range out {
		n := f.PacketSize(lo + k)
		out[k] = buf[:n:n]
		buf = buf[n:]
		fill(f.key(lo+k), out[k])
	}
	return out
}

// Matches reports whether got is exactly packet i: same length, same
// bytes. It regenerates the packet, compares every byte and allocates
// nothing.
func (f File) Matches(i int, got []byte) bool {
	n := f.PacketSize(i)
	if n == 0 || len(got) != n {
		return false
	}
	return matches(f.key(i), got)
}

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9E3779B97F4A7C15

// mix is SplitMix64's finalizer: a bijection on 64-bit words whose output
// bits each depend on every input bit.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// key derives packet i's key from the seed. Mixing the seed first keeps
// neighbouring seeds (a scenario's flows use Seed, Seed+1, ...) apart.
func (f File) key(i int) uint64 {
	return mix(mix(uint64(f.Seed)) + uint64(i)*golden)
}

// fillWords writes the packet whose key is state into p: the SplitMix64
// stream started at the key (word j is mix(key + (j+1)·golden)) as whole
// little-endian words, then the low bytes of the next word for a tail
// shorter than eight. It is the definition of a packet's bytes: fill runs
// it where the CPU has no vector body (splitmix_amd64.go), and the tests
// hold the vector body to it.
func fillWords(state uint64, p []byte) {
	for ; len(p) >= 8; p = p[8:] {
		state += golden
		binary.LittleEndian.PutUint64(p, mix(state))
	}
	if len(p) > 0 {
		w := mix(state + golden)
		for k := range p {
			p[k] = byte(w >> (8 * k))
		}
	}
}

// matchWords reports whether p is the packet fillWords writes for state,
// word by word.
func matchWords(state uint64, p []byte) bool {
	for ; len(p) >= 8; p = p[8:] {
		state += golden
		if binary.LittleEndian.Uint64(p) != mix(state) {
			return false
		}
	}
	if len(p) > 0 {
		w := mix(state + golden)
		for k, b := range p {
			if b != byte(w>>(8*k)) {
				return false
			}
		}
	}
	return true
}

// Result reports a transfer's outcome, common to MORE, ExOR, and Srcr runs.
// The destination keeps it; a source keeps none.
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
	// Transmissions counts the transmissions of frames stamped with the
	// flow, MAC retries included. A sink leaves it 0; CountTransmissions
	// fills it in from the simulator's per-flow count.
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

// A flow's one Result is kept by its destination. Every sink applies the
// same three rules through Arrive, Deliver and Check, whether its protocol
// delivers one packet at a time (Srcr), a decoded batch (MORE) or a running
// count of the packets held (ExOR).

// Arrive records a reception from src at now. The first one stamps Start
// and Src, so a flow's clock starts at its first arrival, not at its start
// (ROADMAP item 2(d)).
func (r *Result) Arrive(src graph.NodeID, now sim.Time) {
	if r.Start == 0 && r.PacketsDelivered == 0 {
		r.Start, r.Src = now, src
	}
}

// Deliver records that total packets have reached the destination by now.
// Only a grown count moves PacketsDelivered and End.
func (r *Result) Deliver(total int, now sim.Time) {
	if total > r.PacketsDelivered {
		r.PacketsDelivered, r.End = total, now
	}
}

// Check records whether a delivered payload matched the file. One mismatch
// clears Verified, and it stays cleared.
func (r *Result) Check(ok bool) {
	r.Verified = r.Verified && ok
}

// CountTransmissions sets Transmissions to what c charged to flow id: the
// simulator counts every data-frame transmission, MAC retries included,
// under the flow stamped on the frame. It is the field's one writer, for
// the engine's runs and hand-built ones alike.
func (r *Result) CountTransmissions(c *sim.Counters, id ID) {
	r.Transmissions = c.TxByFlow[uint32(id)]
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
