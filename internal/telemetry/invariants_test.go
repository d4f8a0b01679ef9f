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
