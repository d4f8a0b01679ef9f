package srcr

import (
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tap sits in front of a destination's Node and counts what its MAC hands
// up: data frames, and FINs per pass. It withholds the first dropFins FINs —
// the MAC has ACKed the frame, so to the source that is a FIN which was
// delivered and never answered.
type tap struct {
	*Node
	dropFins int
	fins     map[int]int // pass -> FINs received
	data     int
}

func (d *tap) Receive(f *sim.Frame) {
	if f.To == d.node.ID() {
		switch m := f.Payload.(type) {
		case *DataMsg:
			d.data++
		case *FinMsg:
			d.fins[m.Pass]++
			if d.dropFins > 0 {
				d.dropFins--
				return
			}
		}
	}
	d.Node.Receive(f)
}

// nackFor hands the destination a FIN for flow 1 from source 0 and returns
// the NACK it queued in answer.
func nackFor(t *testing.T, dst *Node) *NackMsg {
	t.Helper()
	before := len(dst.control)
	fin := &FinMsg{Flow: 1, Pass: 3, Target: dst.node.ID(), Source: 0}
	dst.receiveFin(&sim.Frame{From: 0, To: dst.node.ID(), Payload: fin}, fin)
	if len(dst.control) != before+1 {
		t.Fatalf("FIN queued %d control frames, want 1", len(dst.control)-before)
	}
	fr := dst.control[before]
	nack, ok := fr.Payload.(*NackMsg)
	if !ok || nack.Pass != 3 || nack.Target != 0 || fr.To != 0 || fr.Bytes != nack.wireBytes() {
		t.Fatalf("malformed NACK frame %+v carrying %+v", fr, fr.Payload)
	}
	return nack
}

// TestNackListsExactlyTheMissing: the destination's answer to a FIN names
// the sequence numbers it has not delivered — all of them, in order, up to
// maxNackEntries per NACK — and an empty list once it has everything.
func TestNackListsExactlyTheMissing(t *testing.T) {
	const total = maxNackEntries + 200
	topo := graph.Line(2, 1.0, 10)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	src, dst := NewNode(DefaultConfig(), oracle), NewNode(DefaultConfig(), oracle)
	s.Attach(0, src)
	s.Attach(1, dst)
	file := flow.NewFile(total*32, 32, 5)
	dst.ExpectFlow(1, file, nil)

	// Nothing delivered: the first maxNackEntries, and a frame charged for
	// no more than that.
	nack := nackFor(t, dst)
	if len(nack.Missing) != maxNackEntries || nack.Missing[0] != 0 || nack.Missing[maxNackEntries-1] != maxNackEntries-1 {
		t.Fatalf("capped NACK lists %d entries [%d..%d], want the first %d",
			len(nack.Missing), nack.Missing[0], nack.Missing[len(nack.Missing)-1], maxNackEntries)
	}

	// Deliver everything but a hand-picked few; the NACK is that list.
	payloads := file.Packets(0, total)
	route := []graph.NodeID{0, 1}
	want := []int{0, 7, 8, maxNackEntries, total - 1}
	skip := map[int]bool{}
	for _, seq := range want {
		skip[seq] = true
	}
	for seq := 0; seq < total; seq++ {
		if !skip[seq] {
			dst.deliver(&DataMsg{Flow: 1, Seq: seq, Route: route, Hop: 1, Payload: payloads[seq]})
		}
	}
	if nack = nackFor(t, dst); !reflect.DeepEqual(nack.Missing, want) {
		t.Fatalf("NACK lists %v, want %v", nack.Missing, want)
	}

	for _, seq := range want {
		dst.deliver(&DataMsg{Flow: 1, Seq: seq, Route: route, Hop: 1, Payload: payloads[seq]})
	}
	if nack = nackFor(t, dst); len(nack.Missing) != 0 {
		t.Fatalf("complete file still NACKs %v", nack.Missing)
	}
	if res := dst.Result(1); !res.Completed || !res.Verified || res.PacketsDelivered != total {
		t.Fatalf("sink result after full delivery: %v", res)
	}
}

// TestUnansweredFinIsResent: a FIN the MAC delivered but nobody answered is
// sent again, same pass, one nackTimeout later, and the transfer completes
// on the answer to the second.
func TestUnansweredFinIsResent(t *testing.T) {
	topo := graph.Line(2, 1.0, 10)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	src := NewNode(DefaultConfig(), oracle)
	dst := &tap{Node: NewNode(DefaultConfig(), oracle), dropFins: 1, fins: map[int]int{}}
	s.Attach(0, src)
	s.Attach(1, dst)
	file := flow.NewFile(10*1500, 1500, 6)
	dst.ExpectFlow(1, file, nil)
	var doneAt sim.Time
	if err := src.StartFlow(1, 1, file, func() { doneAt = s.Now() }); err != nil {
		t.Fatal(err)
	}

	st := src.sources[1]
	s.RunWhile(10*sim.Second, func() bool { return dst.fins[0] == 0 })
	firstFin := s.Now()
	if !st.awaitingNack || dst.Result(1).PacketsDelivered != 10 {
		t.Fatalf("first FIN at %v: awaitingNack=%v, sink %v", firstFin, st.awaitingNack, dst.Result(1))
	}
	s.Run(firstFin + nackTimeout - 10*sim.Millisecond)
	if dst.fins[0] != 1 || st.finRetries != 0 || st.done {
		t.Fatalf("before the timeout: %d FINs, %d retries, done=%v", dst.fins[0], st.finRetries, st.done)
	}
	s.Run(firstFin + nackTimeout + 10*sim.Millisecond)
	if dst.fins[0] != 2 {
		t.Fatalf("FIN not re-sent after nackTimeout: destination saw %d", dst.fins[0])
	}
	if !st.done || doneAt == 0 || doneAt < firstFin+nackTimeout-10*sim.Millisecond {
		t.Fatalf("transfer did not complete on the second FIN's answer: done at %v", doneAt)
	}
	if st.finRetries != 0 || st.pass != 0 {
		t.Fatalf("answered FIN left finRetries=%d pass=%d", st.finRetries, st.pass)
	}
}

// eventCount is a telemetry sink counting KindPktDeliver per sequence
// number, and the FIN-stall repair's stall and replan events.
type eventCount struct {
	perSeq  map[int64]int
	stalls  int
	replans int
}

func (c *eventCount) Emit(e telemetry.Event) {
	switch {
	case e.Kind == telemetry.KindPktDeliver:
		c.perSeq[e.Aux]++
	case e.Kind == telemetry.KindStall && e.Aux == telemetry.StallFin:
		c.stalls++
	case e.Kind == telemetry.KindReplan && e.Aux == telemetry.ReplanStall:
		c.replans++
	}
}

// TestLaterPassDuplicatesCountOnce: FINs are prioritised, so one overtakes
// the data still queued at a relay, the NACK names packets that then arrive
// anyway, and the next pass delivers them a second time. The sink counts
// each sequence number once (haveSeq).
func TestLaterPassDuplicatesCountOnce(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 1)
	topo.SetLink(1, 2, 0.4) // the relay's queue builds behind the slow hop
	s := sim.New(topo, sim.DefaultConfig())
	tel := &eventCount{perSeq: map[int64]int{}}
	s.Telem = tel
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	src, relay := NewNode(DefaultConfig(), oracle), NewNode(DefaultConfig(), oracle)
	dst := &tap{Node: NewNode(DefaultConfig(), oracle), fins: map[int]int{}}
	s.Attach(0, src)
	s.Attach(1, relay)
	s.Attach(2, dst)
	const total = 200
	file := flow.NewFile(total*1500, 1500, 11)
	completions := 0
	dst.ExpectFlow(1, file, func() { completions++ })
	finished := false
	if err := src.StartFlow(1, 2, file, func() { finished = true }); err != nil {
		t.Fatal(err)
	}
	s.RunWhile(600*sim.Second, func() bool { return !finished })

	res := dst.Result(1)
	if !res.Completed || !res.Verified || res.PacketsDelivered != total || completions != 1 {
		t.Fatalf("transfer: %v, %d completions", res, completions)
	}
	if dst.data <= total {
		t.Fatalf("destination received %d data frames for %d packets: no duplicate reached it, the test checks nothing", dst.data, total)
	}
	if len(tel.perSeq) != total {
		t.Fatalf("%d distinct sequence numbers delivered, want %d", len(tel.perSeq), total)
	}
	for seq, n := range tel.perSeq {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
}

const diamondPackets = 120

// diamondRun is a transfer from 0 to 3 over 0 -> {1, 2} -> 3, stopped at
// the moment the better relay 1 has died mid-pass.
type diamondRun struct {
	s     *sim.Simulator
	nodes []*Node
	tel   *eventCount
	// others is the routing state of nodes 1-3: the source's own, already
	// told of the failure, or with lag a second view that is not.
	others *flow.Oracle
	failAt sim.Time
	// finished is set by the source's completion callback.
	finished *bool
}

func killBetterRelay(t *testing.T, cfg Config, lag bool) diamondRun {
	t.Helper()
	topo := graph.New(4)
	topo.SetLink(0, 1, 0.95)
	topo.SetLink(1, 3, 0.95)
	topo.SetLink(0, 2, 0.8)
	topo.SetLink(2, 3, 0.8)
	etx := routing.ETXOptions{Threshold: 0.15, AckAware: true}
	srcView := flow.NewOracle(topo, etx)
	r := diamondRun{s: sim.New(topo, sim.DefaultConfig()), tel: &eventCount{perSeq: map[int64]int{}}, others: srcView, finished: new(bool)}
	if lag {
		r.others = flow.NewOracle(topo, etx)
	}
	r.s.Telem = r.tel
	for i, view := range []*flow.Oracle{srcView, r.others, r.others, r.others} {
		r.nodes = append(r.nodes, NewNode(cfg, view))
		r.s.Attach(graph.NodeID(i), r.nodes[i])
	}
	file := flow.NewFile(diamondPackets*1500, 1500, 12)
	r.nodes[3].ExpectFlow(1, file, nil)
	if err := r.nodes[0].StartFlow(1, 3, file, func() { *r.finished = true }); err != nil {
		t.Fatal(err)
	}
	if route := r.nodes[0].sources[1].route; !reflect.DeepEqual(route, []graph.NodeID{0, 1, 3}) {
		t.Fatalf("initial route %v, want via the better relay 1", route)
	}
	// An oracle computes a table at first use; a view that is to lag must
	// hold its way back to the source from before the failure.
	if back := r.others.NextHop(3, 0); back != 1 {
		t.Fatalf("destination's next hop toward the source is %d, want relay 1", back)
	}
	r.failAt = r.s.Run(100 * sim.Millisecond)
	if got := r.nodes[3].Result(1).PacketsDelivered; got == 0 || got == diamondPackets {
		t.Fatalf("relay failure not mid-transfer: %d/%d delivered", got, diamondPackets)
	}
	topo.Isolate(1)
	r.s.FailNode(1)
	srcView.Invalidate()
	return r
}

func (r diamondRun) finishOverSurvivor(t *testing.T) {
	t.Helper()
	r.s.RunWhile(r.s.Now()+60*sim.Second, func() bool { return !*r.finished })
	res := r.nodes[3].Result(1)
	if !res.Completed || !res.Verified || res.PacketsDelivered != diamondPackets {
		t.Fatalf("transfer did not finish over the surviving relay: %v", res)
	}
	if route := r.nodes[0].sources[1].route; !reflect.DeepEqual(route, []graph.NodeID{0, 2, 3}) {
		t.Fatalf("final route %v, want via the surviving relay 2", route)
	}
	if r.nodes[2].Forwarded == 0 {
		t.Fatal("surviving relay forwarded nothing")
	}
}

// TestPassBoundaryReroutesOnNewState: every node shares one view and it is
// told of the relay's death at once, so FIN and NACK already travel the
// surviving relay; the source picks the new route up at the pass boundary
// (refreshRoute), with no repair watchdog armed.
func TestPassBoundaryReroutesOnNewState(t *testing.T) {
	r := killBetterRelay(t, DefaultConfig(), false)
	r.finishOverSurvivor(t)
	if r.tel.stalls != 0 || r.tel.replans != 0 {
		t.Fatalf("repair fired with RepairInterval zero: %d stalls, %d replans", r.tel.stalls, r.tel.replans)
	}
	if r.nodes[0].sources[1].pass == 0 {
		t.Fatal("file completed in the first pass: nothing was lost to the dead relay")
	}
}

// TestFinStallReroutesAroundDeadRelay: the better relay dies mid-transfer
// while the destination's view of the network lags (as a learned view
// does: its NACKs keep heading for the dead relay). The source's FINs go
// unanswered; once they span RepairInterval the source re-routes on the
// stall alone, and when the destination's view catches up the NACK comes
// back and the rest of the file crosses the surviving relay.
func TestFinStallReroutesAroundDeadRelay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RepairInterval = sim.Second
	r := killBetterRelay(t, cfg, true)
	st := r.nodes[0].sources[1]

	// FINs reach the destination over relay 2, its NACKs die at relay 1.
	r.s.RunWhile(r.failAt+30*sim.Second, func() bool { return r.tel.stalls == 0 })
	if r.tel.stalls != 1 || r.tel.replans != 1 {
		t.Fatalf("no FIN-stall repair within 30 s of the failure: %d stalls, %d replans", r.tel.stalls, r.tel.replans)
	}
	if !st.awaitingNack || st.pass != 0 {
		t.Fatalf("a NACK got back (pass %d, awaiting=%v): the stall was not what re-routed", st.pass, st.awaitingNack)
	}
	if !reflect.DeepEqual(st.route, []graph.NodeID{0, 2, 3}) {
		t.Fatalf("route after FIN-stall repair %v, want via the surviving relay 2", st.route)
	}
	if r.s.Now() < r.failAt+cfg.RepairInterval {
		t.Fatalf("repair at %v, before FINs could span RepairInterval after the failure at %v", r.s.Now(), r.failAt)
	}

	r.others.Invalidate()
	r.finishOverSurvivor(t)
}
