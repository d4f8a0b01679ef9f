package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestRunChurnDeterministic: the churn generator draws its schedule from the
// spec's seed, so two executions — schedule generation included — must be
// byte-identical.
func TestRunChurnDeterministic(t *testing.T) {
	doc := `{
  "name": "churn-det",
  "seed": 11,
  "deadline_s": 60,
  "topology": {"kind": "chain", "nodes": 6},
  "repair_s": 2,
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 5,
     "traffic": {"model": "file", "bytes": 16384}}
  ],
  "churn": {"node_lo": 1, "node_hi": 4, "events": 2, "down_s": 3,
            "start_s": 1, "end_s": 10}
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
		t.Error("same seed produced different churn runs")
	}
	if !a.Done() {
		t.Errorf("chain transfer did not survive churn: %+v", a.Flows)
	}
}

// TestRunRecoverNodeCarriesTrafficAgain compares the diamond crash with and
// without a recovery: when relay 1 comes back two seconds after dying, the
// replanner must put it back on the forwarder set, so it ends the run with
// more transmissions than in the never-recovered variant.
func TestRunRecoverNodeCarriesTrafficAgain(t *testing.T) {
	base := `{
  "name": "recover",
  "seed": 4,
  "deadline_s": 240,
  "topology": {"kind": "diamond"},
  "repair_s": 2,
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 2,
     "traffic": {"model": "file", "bytes": 4194304}}
  ],
  "events": [
    {"at_s": 1, "action": "fail_node", "node": 1}%s
  ]
}`
	dead := parseRun(t, fmt.Sprintf(base, ""))
	revived := parseRun(t, fmt.Sprintf(base, `,
    {"at_s": 3, "action": "recover_node", "node": 1}`))
	if !dead.Done() || !revived.Done() {
		t.Fatalf("a diamond transfer stalled: dead=%v revived=%v", dead.Done(), revived.Done())
	}
	if revived.Counters.TxByNode[1] <= dead.Counters.TxByNode[1] {
		t.Errorf("recovered relay carried no extra traffic: %d (revived) vs %d (dead)",
			revived.Counters.TxByNode[1], dead.Counters.TxByNode[1])
	}
	if revived.End >= dead.End {
		t.Errorf("recovering the good relay did not speed the transfer: %v vs %v",
			revived.End, dead.End)
	}
}

// TestRunLinkFlapSlowsThenHeals severs a lossy chain's strongest mid-chain
// link for nine seconds. The weak skip links keep the transfer alive (no
// partition), but losing the good hop must cost time versus an unflapped
// control — which also proves fail_link/restore_link reach the simulated
// channel at all.
func TestRunLinkFlapSlowsThenHeals(t *testing.T) {
	base := `{
  "name": "flap",
  "seed": 8,
  "deadline_s": 240,
  "topology": {"kind": "chain", "nodes": 4},
  "repair_s": 2,
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 3,
     "traffic": {"model": "file", "bytes": 2097152}}
  ]%s
}`
	control := parseRun(t, fmt.Sprintf(base, ""))
	flapped := parseRun(t, fmt.Sprintf(base, `,
  "events": [
    {"at_s": 1, "action": "fail_link", "a": 1, "b": 2},
    {"at_s": 10, "action": "restore_link", "a": 1, "b": 2}
  ]`))
	if !control.Done() || !flapped.Done() {
		t.Fatalf("a chain transfer stalled: control=%v flapped=%v", control.Done(), flapped.Done())
	}
	if flapped.End <= control.End {
		t.Errorf("link flap cost no time: flapped ended at %v, control at %v",
			flapped.End, control.End)
	}
}

// TestRunSetRateTakesEffect doubles a push source's rate mid-run and checks
// the run finishes sooner than the constant-rate control.
func TestRunSetRateTakesEffect(t *testing.T) {
	base := `{
  "name": "rate",
  "seed": 9,
  "deadline_s": 120,
  "topology": {"kind": "chain", "nodes": 3},
  "flows": [
    {"name": "stream", "protocol": "push", "src": 0, "dst": 2,
     "traffic": {"model": "cbr", "rate_pps": 10, "packets": 300}}
  ]%s
}`
	slow := parseRun(t, fmt.Sprintf(base, ""))
	fast := parseRun(t, fmt.Sprintf(base, `,
  "events": [{"at_s": 5, "action": "set_rate", "flow": "stream", "rate_pps": 100}]`))
	if !slow.Done() || !fast.Done() {
		t.Fatalf("a push schedule did not finish: slow=%v fast=%v", slow.Done(), fast.Done())
	}
	if fast.End >= slow.End {
		t.Errorf("set_rate had no effect: fast run ended at %v, control at %v", fast.End, slow.End)
	}
}

// TestRunRepairBeatsNoRepair is the counterfactual behind the two learned
// repair goldens: each row runs its golden's crash with the repair machinery
// off, then with the row's state and top-level repair knobs filled into the
// document's two verbs.
//   - more (node-failure-reroute-learned): the diamond's good relay dies.
//     MORE's broadcasts still reach the destination over the poor direct
//     link, so the bare transfer limps to completion, but the repaired run,
//     which purges the dead relay and replans its credits, must finish
//     measurably sooner (21 s vs 36 s after the traffic epoch at the time of
//     writing).
//   - exor (exor-repair-learned): testbed relay 6 dies under an ExOR flow.
//     Without the watchdog the batch in flight never completes: the bare run
//     ends at its 600 s deadline with 63 of 175 packets delivered and 79,619
//     flow transmissions. The repaired run completes in 23.3 s with 3,845.
func TestRunRepairBeatsNoRepair(t *testing.T) {
	for _, tc := range []struct {
		name, doc     string
		state, repair string
		bareDone      bool
	}{
		{"more", `{
  "name": "stall",
  "seed": 1,
  "deadline_s": 600,
  "topology": {"kind": "diamond"},
  "state": {"mode": "learned", "warmup_s": 30%s},
  %s"flows": [
    {"name": "bulk", "protocol": "more", "dst": 2,
     "traffic": {"model": "file", "bytes": 4194304}}
  ],
  "events": [
    {"at_s": 1, "action": "fail_node", "node": 1}
  ]
}`, `, "dead_interval_s": 5, "max_age_s": 30`, `"repair_s": 5, `, true},
		{"exor", `{
  "name": "stall-exor",
  "seed": 1,
  "deadline_s": 600,
  "topology": {"kind": "testbed"},
  "state": {"mode": "learned"%s},
  %s"flows": [
    {"name": "bulk", "protocol": "exor", "src": 3, "dst": 17,
     "traffic": {"model": "file", "bytes": 262144}}
  ],
  "events": [
    {"at_s": 0.5, "action": "fail_node", "node": 6}
  ]
}`, "", `"repair_s": 2, `, false},
	} {
		bare := parseRun(t, fmt.Sprintf(tc.doc, "", ""))
		repaired := parseRun(t, fmt.Sprintf(tc.doc, tc.state, tc.repair))
		if bare.Done() != tc.bareDone || !repaired.Done() {
			t.Fatalf("%s: bare done=%v (want %v), repaired done=%v (want true)",
				tc.name, bare.Done(), tc.bareDone, repaired.Done())
		}
		bareT, repairedT := bare.End-bare.Epoch, repaired.End-repaired.Epoch
		if repairedT >= bareT {
			t.Errorf("%s: repair machinery did not speed the crash recovery: %v (repaired) vs %v (bare)",
				tc.name, repairedT, bareT)
		}
	}
}

// heapProbe is a telemetry sink that samples the live heap once: at the
// first event at or after at (simulated nanoseconds), mid-run, while
// everything the run holds is still reachable.
type heapProbe struct {
	at      int64
	sampled bool
	live    uint64
}

func (p *heapProbe) Emit(ev telemetry.Event) {
	if p.sampled || ev.At < p.at {
		return
	}
	p.sampled = true
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.live = ms.HeapAlloc
}

// TestRunSoakMemoryBounded runs the full soak-churn scenario and samples the
// live heap 300 simulated seconds in, with the churn schedule under way: what
// the run holds must be bounded by what is in flight, not by how long it
// runs. Crash/recover cycles plus LSA aging must not leak database entries, timers
// or per-batch state, and the push source must not hold its 12 000-packet
// (18 MB) file: it makes packets a chunk at a time.
func TestRunSoakMemoryBounded(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(specDir, "soak-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(telemetry.Config{})
	probe := &heapProbe{at: int64(300 * sim.Second)}
	hub.AddSink(probe)
	r, err := RunWith(s, hub)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatalf("soak run incomplete: %+v", r.Flows)
	}
	if !probe.sampled {
		t.Fatal("the run emitted no event past 300 s")
	}
	t.Logf("live heap at 300 s: %.1f MiB", float64(probe.live)/(1<<20))
	if probe.live > 16<<20 {
		t.Errorf("live heap at 300 s: %.1f MiB, want at most 16 MiB", float64(probe.live)/(1<<20))
	}
}
