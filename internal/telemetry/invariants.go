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
