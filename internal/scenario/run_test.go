package scenario

import (
	"fmt"
	"strings"
	"testing"
)

func parseRun(t *testing.T, doc string) *Result {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunDeterministic is the reproducibility contract: two executions of
// the same spec produce byte-identical canonical results.
func TestRunDeterministic(t *testing.T) {
	doc := `{
  "name": "det",
  "seed": 5,
  "deadline_s": 30,
  "topology": {"kind": "chain", "nodes": 5},
  "cc": {"policy": "choke"},
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 4,
     "traffic": {"model": "file", "bytes": 32768}},
    {"name": "blast", "protocol": "push", "src": 1, "dst": 4, "start_s": 1,
     "traffic": {"model": "cbr", "rate_pps": 300, "packets": 600}}
  ]
}`
	a, b := parseRun(t, doc), parseRun(t, doc)
	encA, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	encB, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(encA) != string(encB) {
		t.Error("identical specs produced different results")
	}
	if _, err := ValidateResult(encA); err != nil {
		t.Errorf("result fails its own schema: %v", err)
	}
}

// TestRunMixedPushPullWithChoke is the tentpole behavior end to end: a MORE
// bulk transfer and an unresponsive push flow share a chain under CHOKe.
// The push pressure must overflow the bounded queues (CHOKe drops fire) and
// both flows must finish their schedules.
func TestRunMixedPushPullWithChoke(t *testing.T) {
	r := parseRun(t, `{
  "name": "mixed",
  "seed": 2,
  "deadline_s": 60,
  "topology": {"kind": "chain", "nodes": 5},
  "cc": {"policy": "choke"},
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 4,
     "traffic": {"model": "file", "bytes": 65536}},
    {"name": "blast", "protocol": "push", "src": 1, "dst": 4,
     "traffic": {"model": "cbr", "rate_pps": 800, "packets": 4000}}
  ]
}`)
	if !r.Done() {
		t.Fatalf("flows incomplete: %+v", r.Flows)
	}
	if r.CCStats.ChokeDrops == 0 {
		t.Error("push pressure produced no CHOKe drops")
	}
	if r.CCStats.Pushed == 0 {
		t.Error("push source bypassed the congestion layer")
	}
	if r.Flows[0].Protocol != "more" || !r.Flows[0].Result.Verified {
		t.Errorf("bulk flow corrupt: %+v", r.Flows[0])
	}
	if r.Flows[1].Generated != 4000 {
		t.Errorf("push generated %d of 4000", r.Flows[1].Generated)
	}
	if r.Fairness.JainThroughput <= 0 || r.Fairness.JainThroughput > 1 {
		t.Errorf("fairness index out of range: %v", r.Fairness.JainThroughput)
	}
}

// TestRunFailNodeReroutes kills the best-path relay of a diamond mid-run:
// the oracle is invalidated, the source replans around the dead node, and
// the transfer still completes.
func TestRunFailNodeReroutes(t *testing.T) {
	// Diamond: the good path 0->1->2 vs the lossy direct link 0->2.
	// Killing relay 1 forces the transfer onto the direct link.
	r := parseRun(t, `{
  "name": "fail",
  "seed": 4,
  "deadline_s": 120,
  "topology": {"kind": "diamond"},
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 2,
     "traffic": {"model": "file", "bytes": 131072}}
  ],
  "events": [
    {"at_s": 2, "action": "fail_node", "node": 1}
  ]
}`)
	if !r.Done() {
		t.Fatalf("transfer did not survive the relay failure: %+v", r.Flows[0].Result)
	}
	if !r.Flows[0].Result.Verified {
		t.Error("delivered bytes corrupt after reroute")
	}
	if r.Counters.TxByNode[1] == 0 {
		t.Error("relay 1 never transmitted before failing (event fired too early?)")
	}
}

// TestRunDegradeEvent layers mid-run loss on a chain and checks the run
// still completes, slower than an undegraded control run.
func TestRunDegradeEvent(t *testing.T) {
	base := `{
  "name": "degrade",
  "seed": 6,
  "deadline_s": 120,
  "topology": {"kind": "chain", "nodes": 4},
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 3,
     "traffic": {"model": "file", "bytes": 131072}}
  ]%s
}`
	control := parseRun(t, sprintf(base, ""))
	degraded := parseRun(t, sprintf(base, `,
  "events": [{"at_s": 0.2, "action": "degrade", "drop": 0.4}]`))
	if !control.Done() || !degraded.Done() {
		t.Fatalf("runs incomplete: control=%v degraded=%v", control.Done(), degraded.Done())
	}
	if degraded.End <= control.End {
		t.Errorf("mid-run degradation did not slow the transfer: control %v, degraded %v",
			control.End, degraded.End)
	}
}

// TestRunLearnedState exercises the measurement plane under the scenario
// engine: warmup, convergence accounting, probe/LSA overhead.
func TestRunLearnedState(t *testing.T) {
	r := parseRun(t, `{
  "name": "learned",
  "seed": 1,
  "deadline_s": 120,
  "topology": {"kind": "chain", "nodes": 4},
  "state": {"mode": "learned", "warmup_s": 20},
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 3,
     "traffic": {"model": "file", "bytes": 32768}}
  ]
}`)
	if !r.Done() {
		t.Fatalf("learned-state transfer incomplete: %+v", r.Flows[0].Result)
	}
	if r.Convergence <= 0 {
		t.Errorf("measurement plane never converged: %v", r.Convergence)
	}
	if r.ProbeTx == 0 || r.FloodTx == 0 {
		t.Errorf("no measurement traffic: probes=%d floods=%d", r.ProbeTx, r.FloodTx)
	}
	if r.Epoch == 0 {
		t.Error("traffic epoch not offset by warmup")
	}
}

// TestRunAutoPairAndStop exercises auto-drawn endpoints and the scheduled
// push stop: the source must halt at the stop time, well short of its
// packet budget.
func TestRunAutoPairAndStop(t *testing.T) {
	r := parseRun(t, `{
  "name": "stop",
  "seed": 9,
  "deadline_s": 30,
  "topology": {"kind": "testbed"},
  "flows": [
    {"name": "burst", "protocol": "push", "auto_pair": true, "start_s": 1, "stop_s": 3,
     "traffic": {"model": "cbr", "rate_pps": 100, "packets": 100000}}
  ]
}`)
	if !r.Done() {
		t.Fatal("stopped push flow not marked done")
	}
	f := r.Flows[0]
	// ~2 s at 100 pps: about 200 packets, nowhere near the 100000 budget.
	if f.Generated == 0 || f.Generated > 400 {
		t.Errorf("stop_s did not bound generation: %d packets", f.Generated)
	}
	if f.Result.Src == f.Result.Dst {
		t.Errorf("auto pair degenerate: %v", f.Result)
	}
	if f.Result.Completed {
		t.Error("cut-short push flow claims a completed schedule")
	}
}

// TestRunMixedPullProtocolsUnderCC pins Sent routing through the
// mixed-protocol stack: with a congestion layer between the stack and the
// MAC, frames are queued and resolved out of pull order, so outcomes must
// be routed to the member that supplied each frame (the sim.Stack inside
// congest.Multi lists each pulled frame with its supplier), not to the most
// recent puller. A misroute strands srcr's inFlight flag and the srcr flow
// stalls forever.
func TestRunMixedPullProtocolsUnderCC(t *testing.T) {
	r := parseRun(t, `{
  "name": "mixed-pull",
  "seed": 3,
  "deadline_s": 120,
  "topology": {"kind": "chain", "nodes": 4},
  "cc": {"policy": "tail"},
  "flows": [
    {"name": "coded", "protocol": "more", "src": 0, "dst": 3,
     "traffic": {"model": "file", "bytes": 32768}},
    {"name": "plain", "protocol": "srcr", "src": 0, "dst": 3,
     "traffic": {"model": "file", "bytes": 32768}}
  ]
}`)
	for _, f := range r.Flows {
		if !f.Done || !f.Result.Verified {
			t.Errorf("flow %s under mixed stack + cc: done=%v verified=%v (%+v)",
				f.Name, f.Done, f.Result.Verified, f.Result)
		}
	}
}

// TestRunDrainsQueuedPushTraffic checks the run does not stop the instant
// the last push packet is generated: datagrams committed to queues and the
// MAC still get their airtime, so the run end lies past the final
// generation instant and deliveries on a clean link reach the full budget.
func TestRunDrainsQueuedPushTraffic(t *testing.T) {
	r := parseRun(t, `{
  "name": "drain",
  "seed": 8,
  "deadline_s": 60,
  "topology": {"kind": "chain", "nodes": 2},
  "cc": {"policy": "tail", "queue": 8},
  "flows": [
    {"name": "burst", "protocol": "push", "src": 0, "dst": 1,
     "traffic": {"model": "cbr", "rate_pps": 400, "packets": 120}}
  ]
}`)
	if !r.Done() {
		t.Fatal("push schedule incomplete")
	}
	// Packet 119 is generated at 119/400 s after the epoch; the drain
	// phase must extend the run past that instant.
	lastGen := r.Epoch + secs(119.0/400)
	if r.End <= lastGen {
		t.Errorf("run ended at %v, at/before the last generation instant %v — queued tail never drained",
			r.End, lastGen)
	}
	f := r.Flows[0]
	if f.Result.PacketsDelivered < f.Generated*9/10 {
		t.Errorf("single good hop delivered only %d of %d — tail cut off", f.Result.PacketsDelivered, f.Generated)
	}
}

// TestRunFailNodeHaltsPushSource kills a push flow's source mid-schedule:
// generation must stop (a dead radio's clock injects nothing) and the flow
// must not claim to have run its schedule.
func TestRunFailNodeHaltsPushSource(t *testing.T) {
	r := parseRun(t, `{
  "name": "dead-source",
  "seed": 2,
  "deadline_s": 30,
  "topology": {"kind": "chain", "nodes": 3},
  "cc": {"policy": "tail"},
  "flows": [
    {"name": "burst", "protocol": "push", "src": 0, "dst": 2,
     "traffic": {"model": "cbr", "rate_pps": 100, "packets": 2000}}
  ],
  "events": [
    {"at_s": 2, "action": "fail_node", "node": 0}
  ]
}`)
	f := r.Flows[0]
	if f.Done {
		t.Error("flow on a dead source claims it ran its schedule")
	}
	// ~2 s at 100 pps: generation must halt at the failure, one tick slack.
	if f.Generated == 0 || f.Generated > 220 {
		t.Errorf("dead source generated %d packets (expected ~200)", f.Generated)
	}
	if r.End >= r.Epoch+secs(30) {
		t.Error("run never terminated after the source died (drain waited on a dead backlog?)")
	}
}

func sprintf(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

// TestRunSurfacesStartError: under the oracle a flow whose source has no
// route when its start fires never starts, and the run used to say nothing
// about why. The flow's outcome carries the start error for the caller; the
// document and its digest leave it out.
func TestRunSurfacesStartError(t *testing.T) {
	r := parseRun(t, `{
  "name": "cut",
  "seed": 1,
  "deadline_s": 30,
  "topology": {"kind": "chain", "nodes": 3},
  "flows": [
    {"name": "stranded", "protocol": "more", "src": 0, "dst": 2, "start_s": 1,
     "traffic": {"model": "file", "bytes": 32768}},
    {"name": "fine", "protocol": "srcr", "src": 1, "dst": 2, "start_s": 1,
     "traffic": {"model": "file", "bytes": 32768}}
  ],
  "events": [
    {"at_s": 0, "action": "fail_link", "a": 0, "b": 1},
    {"at_s": 0, "action": "fail_link", "a": 0, "b": 2}
  ]
}`)
	stranded, fine := r.Flows[0], r.Flows[1]
	if stranded.Done || stranded.Result.Transmissions != 0 {
		t.Fatalf("flow with no route ran: %+v", stranded)
	}
	if err := stranded.StartErr; err == nil || !strings.Contains(err.Error(), "core: flow 1:") ||
		!strings.Contains(err.Error(), "unreachable from 0") {
		t.Errorf("stranded flow's start error = %v, want core's no-route error for flow 1", err)
	}
	if !fine.Done || fine.StartErr != nil {
		t.Errorf("routable flow: done=%v, start error %v", fine.Done, fine.StartErr)
	}
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "StartErr") {
		t.Error("the start error leaked into the result document")
	}
	if _, err := ValidateResult(enc); err != nil {
		t.Errorf("document with a stranded flow fails its schema: %v", err)
	}
}
