package telemetry

// activityAtFailedNode is one of the conservation invariants a run's event
// stream must satisfy (ROADMAP item 1), as a pure function of the events in
// emission order: it returns every reception (KindRx), reception loss
// (KindDrop), congestion-layer dequeue (KindDequeue) and credit grant
// (KindGrant) at a node between its KindNodeFail and its next
// KindNodeRecover. A failed radio decodes nothing and sends nothing, so a
// correct run returns none.
func activityAtFailedNode(events []Event) []Event {
	var failed []bool // by node ID
	var bad []Event
	for _, ev := range events {
		switch ev.Kind {
		case KindNodeFail, KindNodeRecover:
			*at(&failed, ev.Node) = ev.Kind == KindNodeFail
		case KindRx, KindDrop, KindDequeue, KindGrant:
			if *at(&failed, ev.Node) {
				bad = append(bad, ev)
			}
		}
	}
	return bad
}

// queueDepthMismatch is the congestion queue's conservation invariant (ROADMAP
// item 1), as a pure function of the events in emission order. A node's
// resident count is its enqueues − dequeues − stale drops − CHOKe drops/2 so
// far: a stale drop purges a queued frame, a CHOKe pair drops one queued
// frame and one arrival, and a tail drop turns an arrival away. At each
// KindEnqueue, Aux (the depth after the admit) must be 1 + the resident
// count before it, and the count must never go negative. It returns every
// enqueue whose depth disagrees and every event that takes a count below
// zero; a correct run returns none.
func queueDepthMismatch(events []Event) []Event {
	type queue struct{ enq, deq, stale, choke int64 }
	var nodes []queue // by node ID
	var bad []Event
	for _, ev := range events {
		q := at(&nodes, ev.Node)
		switch ev.Kind {
		case KindEnqueue:
			if ev.Aux != 1+q.enq-q.deq-q.stale-q.choke/2 {
				bad = append(bad, ev)
			}
			q.enq++
		case KindDequeue:
			q.deq++
		case KindQueueDrop:
			switch ev.Aux {
			case QDropStale:
				q.stale++
			case QDropChoke:
				q.choke++
			default:
				continue
			}
		default:
			continue
		}
		if q.enq-q.deq-q.stale-q.choke/2 < 0 {
			bad = append(bad, ev)
		}
	}
	return bad
}

// airOverlap is the single-radio half of "every tx-start has exactly one
// tx-end" (ROADMAP item 1), as a pure function of the events in emission
// order: a node's own frames never overlap on the air. Each KindTx at a
// node, MAC ACKs included, must start no earlier than the previous one
// there ends (its At + Dur). It returns every KindTx that starts early; a
// correct run returns none.
func airOverlap(events []Event) []Event {
	var free []int64 // by node ID: when its last frame left the air
	var bad []Event
	for _, ev := range events {
		if ev.Kind != KindTx {
			continue
		}
		end := at(&free, ev.Node)
		if ev.At < *end {
			bad = append(bad, ev)
		}
		*end = ev.At + ev.Dur
	}
	return bad
}
