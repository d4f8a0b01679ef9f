package telemetry_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// eventLog is a sink that keeps every event.
type eventLog []telemetry.Event

func (l *eventLog) Emit(ev telemetry.Event) { *l = append(*l, ev) }

// TestNoActivityAtFailedNodeInReroute runs the invariant over the event
// streams of the two node-failure specs, whose diamond loses its good relay
// while a MORE transfer runs across it: the relay is silenced and its links
// isolated, the other nodes keep transmitting, and the relay must record
// nothing while it is down. scenarios/node-failure-reroute.json as pinned
// finishes its 128 KiB transfer at 0.43 s, before its failure at 2 s, so
// here its file is 1 MiB and the failure lands mid-transfer; the learned
// twin fails the relay as pinned. (A failed radio that keeps its links is
// sim's TestFailNodeSilencesAndDeafens.)
func TestNoActivityAtFailedNodeInReroute(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes int
	}{{"node-failure-reroute", 1 << 20}, {"node-failure-reroute-learned", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := scenario.Load("../../scenarios/" + tc.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			if tc.bytes > 0 {
				spec.Flows[0].Traffic.Bytes = tc.bytes
			}
			var log eventLog
			hub := telemetry.NewHub(telemetry.Config{})
			hub.AddSink(&log)
			res, err := scenario.RunWith(spec, hub)
			if err != nil {
				t.Fatal(err)
			}
			failed, heardBefore, sentAfter := int32(-1), 0, 0
			for _, ev := range log {
				switch {
				case ev.Kind == telemetry.KindNodeFail:
					failed = ev.Node
				case failed < 0 && ev.Kind == telemetry.KindRx:
					heardBefore++
				case failed >= 0 && ev.Kind == telemetry.KindTx && ev.Node != failed:
					sentAfter++
				}
			}
			if failed < 0 || heardBefore == 0 || sentAfter == 0 || !res.Flows[0].Done {
				t.Fatalf("failed node %d, %d receptions before, %d transmissions after, flow done %v: the stream does not exercise the invariant",
					failed, heardBefore, sentAfter, res.Flows[0].Done)
			}
			if bad := telemetry.ActivityAtFailedNode(log); len(bad) != 0 {
				t.Fatalf("%d events at failed node %d, the first %+v", len(bad), failed, bad[0])
			}
			t.Logf("node %d failed; %d receptions before, %d transmissions by others after", failed, heardBefore, sentAfter)
		})
	}
}

// TestQueueDepthsConserved runs the queue invariant over the event streams
// of two specs that queue data at a congestion layer: push-choke, whose
// Srcr push flows overflow a CHOKe queue, and multi-flow-congestion-512, the
// fastest credit golden, whose MORE queues lose frames to stale purges.
// Every admit must report the depth the node's earlier admits, releases and
// drops predict.
func TestQueueDepthsConserved(t *testing.T) {
	for _, name := range []string{"push-choke", "multi-flow-congestion-512"} {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Load("../../scenarios/" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var log eventLog
			hub := telemetry.NewHub(telemetry.Config{})
			hub.AddSink(&log)
			if _, err := scenario.RunWith(spec, hub); err != nil {
				t.Fatal(err)
			}
			counts := map[telemetry.Kind]int{}
			drops := map[int64]int{}
			for _, ev := range log {
				counts[ev.Kind]++
				if ev.Kind == telemetry.KindQueueDrop {
					drops[ev.Aux]++
				}
			}
			purged := drops[telemetry.QDropChoke]
			if name != "push-choke" {
				purged = drops[telemetry.QDropStale]
			}
			if counts[telemetry.KindEnqueue] == 0 || counts[telemetry.KindDequeue] == 0 || purged == 0 {
				t.Fatalf("%d enqueues, %d dequeues, queue drops by reason %v: the stream does not exercise the invariant",
					counts[telemetry.KindEnqueue], counts[telemetry.KindDequeue], drops)
			}
			if bad := telemetry.QueueDepthMismatch(log); len(bad) != 0 {
				t.Fatalf("%d violations, the first %+v", len(bad), bad[0])
			}
			t.Logf("%d enqueues, %d dequeues, queue drops by reason %v",
				counts[telemetry.KindEnqueue], counts[telemetry.KindDequeue], drops)
		})
	}
}

// TestNoFrameOverlapsItsSender runs the single-radio invariant over the
// event streams of more-testbed-3flows, whose three MORE flows keep the
// testbed's relays sending data and MAC ACKs, and soak-churn, whose nodes
// crash and recover under a Srcr push stream with unicast retries. No
// node's frame may start while its previous one is still on the air.
func TestNoFrameOverlapsItsSender(t *testing.T) {
	for _, name := range []string{"more-testbed-3flows", "soak-churn"} {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Load("../../scenarios/" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var log eventLog
			hub := telemetry.NewHub(telemetry.Config{})
			hub.AddSink(&log)
			if _, err := scenario.RunWith(spec, hub); err != nil {
				t.Fatal(err)
			}
			counts := map[telemetry.Kind]int{}
			acks := 0
			for _, ev := range log {
				counts[ev.Kind]++
				if ev.Kind == telemetry.KindTx && ev.Aux == 1 {
					acks++
				}
			}
			if counts[telemetry.KindTx] == 0 || acks == 0 {
				t.Fatalf("%d transmissions, %d of them MAC ACKs: the stream does not exercise the invariant", counts[telemetry.KindTx], acks)
			}
			if name == "soak-churn" && counts[telemetry.KindNodeFail] == 0 {
				t.Fatal("no node failed: the stream does not run churn")
			}
			if bad := telemetry.AirOverlap(log); len(bad) != 0 {
				t.Fatalf("%d violations, the first %+v", len(bad), bad[0])
			}
			t.Logf("%d transmissions, %d of them MAC ACKs, %d node failures",
				counts[telemetry.KindTx], acks, counts[telemetry.KindNodeFail])
		})
	}
}
