package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		txt, err := k.MarshalText()
		if err != nil || string(txt) != s {
			t.Fatalf("MarshalText(%v) = %q, %v", k, txt, err)
		}
	}
	if got := kindCount.String(); !strings.HasPrefix(got, "Kind(") {
		t.Fatalf("sentinel kind renders as %q", got)
	}
}

func TestHistExactQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(50) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	if h.Summary().Count != 100 {
		t.Fatalf("count %d", h.Summary().Count)
	}
	// Exact percentiles over 1000..100000 with linear interpolation.
	if p := h.Quantile(50); math.Abs(p-50500) > 1 {
		t.Fatalf("p50 = %v", p)
	}
	if p := h.Quantile(0); p != 1000 {
		t.Fatalf("p0 = %v", p)
	}
	if p := h.Quantile(100); p != 100000 {
		t.Fatalf("p100 = %v", p)
	}
	s := h.Summary()
	if s.Count != 100 || math.Abs(s.MaxMs-0.1) > 1e-9 || s.MeanMs <= 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestHistNegativeClamp(t *testing.T) {
	var h Hist
	h.Observe(-5)
	if h.Summary().Count != 1 || h.Quantile(50) != 0 {
		t.Fatalf("negative sample not clamped: count %d p50 %v", h.Summary().Count, h.Quantile(50))
	}
}

// TestHistBucketFallback pushes the population past the exact-sample cap
// and checks the bucket-interpolated quantiles stay ordered and inside the
// observed value range.
func TestHistBucketFallback(t *testing.T) {
	var h Hist
	n := int64(3 * histExactCap)
	for i := int64(1); i <= n; i++ {
		h.Observe(i)
	}
	if h.exact != nil {
		t.Fatal("exact samples retained past the cap")
	}
	p50, p95, p99 := h.Quantile(50), h.Quantile(95), h.Quantile(99)
	if !(p50 <= p95 && p95 <= p99 && p99 <= float64(n)) {
		t.Fatalf("bucket quantiles disordered: %v %v %v", p50, p95, p99)
	}
	// Uniform samples over [1, n]: the interpolated median must land
	// within its power-of-two bucket of the true value.
	if p50 < float64(n)/4 || p50 > float64(n) {
		t.Fatalf("p50 %v far from true median %v", p50, n/2)
	}
	// Out-of-range p clamps instead of panicking.
	if h.Quantile(-1) < 0 || h.Quantile(200) > float64(n) {
		t.Fatal("quantile clamp failed")
	}
}

func TestHubCountersAndSinks(t *testing.T) {
	h := NewHub(Config{})
	var got []Event
	h.AddSink(sinkFunc(func(ev Event) { got = append(got, ev) }))
	h.Emit(Event{At: 10, Node: 1, Kind: KindTx})
	h.Emit(Event{At: 20, Node: 2, Kind: KindRx})
	if h.Events() != 2 || h.LastAt() != 20 {
		t.Fatalf("events %d lastAt %d", h.Events(), h.LastAt())
	}
	if len(got) != 2 || got[1].Kind != KindRx {
		t.Fatalf("fan-out missed events: %+v", got)
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Emit(ev Event) { f(ev) }

// TestFlightRecorderBounds fills one node's ring past its capacity and
// checks the stall dump window holds exactly the last ringCap events.
func TestFlightRecorderBounds(t *testing.T) {
	const emitted = ringCap + 6
	var dumps []StallDump
	h := NewHub(Config{OnStall: func(d StallDump) { dumps = append(dumps, d) }})
	for i := int64(0); i < emitted; i++ {
		h.Emit(Event{At: i, Node: 7, Kind: KindTx})
	}
	h.Emit(Event{At: 1 << 40, Node: 7, Flow: 3, Batch: 2, Aux: StallBatch, Kind: KindStall})
	if len(dumps) != 1 {
		t.Fatalf("%d dumps", len(dumps))
	}
	d := dumps[0]
	if d.Node != 7 || d.Flow != 3 || d.Batch != 2 || d.Reason != "batch-stall" {
		t.Fatalf("dump identity %+v", d)
	}
	if d.Seen != emitted+1 || len(d.Recent) != ringCap {
		t.Fatalf("window wrong: seen %d, recent %d", d.Seen, len(d.Recent))
	}
	// Oldest first, ending with the stall itself.
	for i, ev := range d.Recent[:ringCap-1] {
		if want := int64(emitted - ringCap + 1 + i); ev.At != want {
			t.Fatalf("recent[%d].At = %d, want %d", i, ev.At, want)
		}
	}
	if last := d.Recent[ringCap-1]; last.Kind != KindStall || last.At != 1<<40 {
		t.Fatalf("dump does not end with the stall event: %+v", last)
	}
}

// TestOnStallFiresForEveryStall checks the hub hands every stall's dump to
// OnStall, however many there are: it keeps none itself.
func TestOnStallFiresForEveryStall(t *testing.T) {
	var dumps []StallDump
	h := NewHub(Config{OnStall: func(d StallDump) { dumps = append(dumps, d) }})
	const stalls = 21
	for i := 0; i < stalls; i++ {
		h.Emit(Event{At: int64(i), Node: 0, Aux: StallFin, Kind: KindStall})
	}
	if len(dumps) != stalls {
		t.Fatalf("OnStall fired %d times for %d stalls", len(dumps), stalls)
	}
	if dumps[0].Reason != "fin-stall" {
		t.Fatalf("reason %q", dumps[0].Reason)
	}
}

// TestChromeTraceOutput checks the exported file is valid trace-event
// JSON: an array where transmissions are complete slices and everything
// else instants, and that the cap counts instead of storing (exercised at a
// cap of 3 through chromeState directly: the Hub's is chromeCap).
func TestChromeTraceOutput(t *testing.T) {
	h := NewHub(Config{ChromeTrace: true})
	h.Emit(Event{At: 1500, Dur: 300, Node: 2, Peer: -1, Bytes: 1500, Flow: 1, Kind: KindTx})
	h.Emit(Event{At: 1800, Node: 3, Peer: 2, Flow: 1, Kind: KindRx})
	h.Emit(Event{At: 2000, Node: 3, Flow: 1, Batch: 4, Aux: 32, Kind: KindBatchDecode})
	if h.Truncated() != 0 {
		t.Fatalf("truncated %d under chromeCap", h.Truncated())
	}
	h.chrome.observe(Event{At: 2100, Node: 3, Kind: KindRx}, 3) // past a cap of 3
	if h.Truncated() != 1 {
		t.Fatalf("truncated %d", h.Truncated())
	}

	var buf bytes.Buffer
	if err := h.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(evs) != 3 {
		t.Fatalf("%d trace events", len(evs))
	}
	tx := evs[0]
	if tx["name"] != "tx" || tx["ph"] != "X" || tx["ts"].(float64) != 1.5 || tx["dur"].(float64) != 0.3 {
		t.Fatalf("tx slice wrong: %v", tx)
	}
	if tx["pid"].(float64) != 2 || tx["tid"].(float64) != 1 {
		t.Fatalf("tx row wrong: %v", tx)
	}
	if evs[1]["ph"] != "i" || evs[2]["name"] != "batch-decode" {
		t.Fatalf("instant events wrong: %v %v", evs[1], evs[2])
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	h := NewHub(Config{ChromeTrace: true})
	var buf bytes.Buffer
	if err := h.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil || len(evs) != 0 {
		t.Fatalf("empty trace invalid: %v %v", err, evs)
	}
}

// TestMetricsCorrelation drives the registry with hand-built events and
// checks the latency correlation rules: first-seen batch start wins,
// decode fans the latency out per packet, batch-less sends pair with
// their delivery, and the deadline bills every late packet.
func TestMetricsCorrelation(t *testing.T) {
	h := NewHub(Config{DeadlineNS: 1000})
	h.Emit(Event{At: 50, Flow: 5, Aux: 1, Kind: KindPktDeliver})
	h.Emit(Event{At: 60, Flow: 4, Batch: 0, Kind: KindBatchStart}) // no decode: no row
	h.Emit(Event{At: 70, Flow: 3, Aux: 1, Kind: KindPktSend})      // no delivery: no row
	h.Emit(Event{At: 100, Flow: 1, Batch: 0, Kind: KindBatchStart})
	h.Emit(Event{At: 500, Flow: 1, Batch: 0, Kind: KindBatchStart}) // repair restart: ignored
	h.Emit(Event{At: 600, Flow: 1, Batch: 0, Aux: 3, Node: 9, Kind: KindBatchDecode})

	h.Emit(Event{At: 0, Flow: 2, Aux: 7, Kind: KindPktSend})
	h.Emit(Event{At: 5000, Flow: 2, Aux: 7, Kind: KindPktDeliver}) // late: miss
	h.Emit(Event{At: 6000, Flow: 2, Aux: 8, Kind: KindPktDeliver}) // no matching send: counted, unsampled

	r := h.Report()
	var ids []uint32
	for _, f := range r.Flows {
		ids = append(ids, f.Flow)
	}
	if !slices.Equal(ids, []uint32{1, 2, 5}) {
		t.Fatalf("flow rows %v, want [1 2 5]", ids)
	}
	f1 := r.FlowMetrics(1)
	if f1.Delivered != 3 || f1.Batches != 1 {
		t.Fatalf("flow 1 accounting %+v", f1)
	}
	// Latency from the FIRST start: 600-100 = 500 ns, sampled 3x.
	if f1.Delivery.Count != 3 || f1.Decode.Count != 1 || f1.Delivery.MaxMs != 500*msPerNs {
		t.Fatalf("flow 1 latency %+v", f1)
	}
	if f1.DeadlineMisses != 0 || f1.DeadlineMissRate != 0 {
		t.Fatalf("flow 1 within deadline but %+v", f1)
	}
	f2 := r.FlowMetrics(2)
	if f2.Delivered != 2 || f2.Delivery.Count != 1 {
		t.Fatalf("flow 2 accounting %+v", f2)
	}
	if f2.DeadlineMisses != 1 || f2.DeadlineMissRate != 1 {
		t.Fatalf("flow 2 misses %+v", f2)
	}
	// Correlation maps drained: re-deliver of the same key is not resampled.
	h.Emit(Event{At: 7000, Flow: 2, Aux: 7, Kind: KindPktDeliver})
	if got := h.Report().FlowMetrics(2); got.Delivery.Count != 1 || got.Delivered != 3 {
		t.Fatalf("duplicate delivery resampled: %+v", got)
	}
}

// TestNodeMetrics checks the per-node counter classification, that rows
// come out in ascending node order whatever order the nodes first emitted
// in, and that a node only ring-only kinds reached gets no row while its
// flight recorder still holds those events for a later stall's dump.
func TestNodeMetrics(t *testing.T) {
	var dumps []StallDump
	h := NewHub(Config{OnStall: func(d StallDump) { dumps = append(dumps, d) }})
	h.Emit(Event{Node: 9, Kind: KindTx})
	h.Emit(Event{Node: 4, Kind: KindTx})
	h.Emit(Event{Node: 4, Aux: 1, Kind: KindTx}) // MAC ack
	h.Emit(Event{Node: 4, Kind: KindRx})
	h.Emit(Event{Node: 4, Aux: DropCollision, Kind: KindDrop})
	h.Emit(Event{Node: 4, Aux: DropChannel, Kind: KindDrop})
	h.Emit(Event{Node: 4, Aux: 6, Kind: KindEnqueue})
	h.Emit(Event{Node: 4, Dur: 2500, Kind: KindDequeue})
	h.Emit(Event{Node: 4, Aux: QDropChoke, Kind: KindQueueDrop})
	h.Emit(Event{Node: 4, Kind: KindGrant})
	h.Emit(Event{Node: 4, Kind: KindLSAFlood})
	h.Emit(Event{Node: 4, Aux: ReplanDrift, Kind: KindReplan})
	h.Emit(Event{Node: 2, Kind: KindRx})
	h.Emit(Event{At: 1, Node: 6, Kind: KindNodeFail})
	h.Emit(Event{At: 2, Node: 6, Flow: 1, Kind: KindBatchStart})

	r := h.Report()
	var ids []int32
	for _, n := range r.Nodes {
		ids = append(ids, n.Node)
	}
	if !slices.Equal(ids, []int32{2, 4, 9}) {
		t.Fatalf("node rows %v, want [2 4 9]", ids)
	}
	n := r.Nodes[1]
	if n.Tx != 1 || n.MACAcks != 1 || n.Rx != 1 ||
		n.Collisions != 1 || n.ChanLosses != 1 ||
		n.Enqueued != 1 || n.QueueMax != 6 || n.QueueDrops != 1 ||
		n.Grants != 1 || n.Floods != 1 || n.Replans != 1 {
		t.Fatalf("node counters %+v", n)
	}
	if n.QueueWaitSummary.Count != 1 || n.QueueWaitSummary.MaxMs != 2500*msPerNs {
		t.Fatalf("queue wait %+v", n.QueueWaitSummary)
	}
	if r.Nodes[0].Rx != 1 || r.Nodes[2].Tx != 1 {
		t.Fatalf("rows 2 and 9 %+v %+v", r.Nodes[0], r.Nodes[2])
	}

	h.Emit(Event{At: 3, Node: 6, Aux: StallBatch, Kind: KindStall})
	if len(dumps) != 1 || dumps[0].Seen != 3 || len(dumps[0].Recent) != 3 ||
		dumps[0].Recent[0].Kind != KindNodeFail || dumps[0].Recent[1].Kind != KindBatchStart {
		t.Fatalf("stall dump at node 6 %+v", dumps)
	}
	if r := h.Report(); len(r.Nodes) != 4 || r.Nodes[2].Node != 6 || r.Nodes[2].Stalls != 1 || r.Stalls != 1 {
		t.Fatalf("the stall gives node 6 its row: %+v", r.Nodes)
	}
}
