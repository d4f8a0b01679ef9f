package telemetry

import (
	"reflect"
	"testing"
)

// TestActivityAtFailedNodeFindsViolations feeds the invariant a hand-built
// stream: node 3 fails, then receives, loses a reception, grants credit and
// hands a frame to its MAC, recovers, and receives again, while node 4 keeps
// working throughout. Exactly the four events at node 3 while it was down
// are violations, in stream order; a transmission at the failed node is not
// this invariant's concern (a frame already on the air completes).
func TestActivityAtFailedNodeFindsViolations(t *testing.T) {
	ev := func(at int64, node int32, k Kind) Event { return Event{At: at, Node: node, Peer: -1, Kind: k} }
	stream := []Event{
		ev(1, 3, KindRx),
		ev(2, 3, KindNodeFail),
		ev(3, 3, KindRx),
		ev(4, 4, KindRx),
		ev(5, 3, KindDrop),
		ev(6, 3, KindTx),
		ev(7, 3, KindGrant),
		ev(8, 4, KindDequeue),
		ev(9, 3, KindDequeue),
		ev(10, 3, KindNodeRecover),
		ev(11, 3, KindRx),
		ev(12, 3, KindGrant),
	}
	want := []Event{stream[2], stream[4], stream[6], stream[8]}
	if got := activityAtFailedNode(stream); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations %+v, want %+v", got, want)
	}
	clean := append(append([]Event(nil), stream[:2]...), stream[9:]...)
	if got := activityAtFailedNode(clean); len(got) != 0 {
		t.Fatalf("a clean stream has violations %+v", got)
	}
	if got := activityAtFailedNode(nil); len(got) != 0 {
		t.Fatalf("an empty stream has violations %+v", got)
	}
}

// TestQueueDepthMismatchFindsViolations feeds the queue invariant a
// hand-built stream. Node 1 admits, releases, loses a queued frame to a
// stale purge, a CHOKe pair and a tail drop, each admit reporting the depth
// the count predicts, and then reports a depth two too deep. Node 2 releases
// a frame it never admitted (the count goes negative) and then reports the
// depth its history cannot have. Exactly those three events are
// violations, in stream order; receptions and reception losses are not
// this invariant's concern.
func TestQueueDepthMismatchFindsViolations(t *testing.T) {
	ev := func(at int64, node int32, k Kind, aux int64) Event {
		return Event{At: at, Node: node, Peer: -1, Kind: k, Aux: aux}
	}
	stream := []Event{
		ev(1, 1, KindEnqueue, 1),
		ev(2, 1, KindEnqueue, 2),
		ev(3, 1, KindDequeue, 0),
		ev(4, 1, KindEnqueue, 2),
		ev(5, 1, KindQueueDrop, QDropStale),
		ev(6, 1, KindEnqueue, 2),
		ev(7, 1, KindQueueDrop, QDropChoke),
		ev(8, 1, KindQueueDrop, QDropChoke),
		ev(9, 1, KindQueueDrop, QDropTail),
		ev(10, 1, KindDrop, DropCollision),
		ev(11, 1, KindEnqueue, 2),
		ev(12, 1, KindEnqueue, 5),
		ev(13, 2, KindDequeue, 0),
		ev(14, 2, KindEnqueue, 1),
		ev(15, 2, KindRx, 0),
	}
	want := []Event{stream[11], stream[12], stream[13]}
	if got := queueDepthMismatch(stream); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations %+v, want %+v", got, want)
	}
	if got := queueDepthMismatch(stream[:11]); len(got) != 0 {
		t.Fatalf("a clean stream has violations %+v", got)
	}
	if got := queueDepthMismatch(nil); len(got) != 0 {
		t.Fatalf("an empty stream has violations %+v", got)
	}
}

// TestAirOverlapFindsViolations feeds the single-radio invariant a
// hand-built stream. Node 1 sends a data frame and a MAC ACK back to back,
// the second starting the nanosecond the first ends; then an ACK that starts
// inside a data frame, and a data frame that starts inside that ACK. Node 2
// transmits while node 1 is on the air, which is not this invariant's
// concern, and a reception at node 1 during its own frame is not either.
// Exactly node 1's two early starts are violations, in stream order.
func TestAirOverlapFindsViolations(t *testing.T) {
	tx := func(at, dur int64, node int32, ack int64) Event {
		return Event{At: at, Dur: dur, Node: node, Peer: -1, Kind: KindTx, Aux: ack}
	}
	stream := []Event{
		tx(10, 100, 1, 0),
		tx(50, 100, 2, 0),
		tx(110, 20, 1, 1),
		{At: 120, Node: 1, Peer: 2, Kind: KindRx},
		tx(200, 100, 1, 0),
		tx(299, 20, 1, 1),
		tx(310, 100, 1, 0),
		tx(319, 5, 2, 1),
	}
	want := []Event{stream[5], stream[6]}
	if got := airOverlap(stream); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations %+v, want %+v", got, want)
	}
	if got := airOverlap(stream[:5]); len(got) != 0 {
		t.Fatalf("a clean stream has violations %+v", got)
	}
	if got := airOverlap(nil); len(got) != 0 {
		t.Fatalf("an empty stream has violations %+v", got)
	}
}
