package telemetry

// ringCap bounds each node's flight-recorder ring (events).
const ringCap = 256

// eventRing is one node's flight recorder: a bounded ring of its recent
// events, retained so a stall watchdog can dump the lead-up.
type eventRing struct {
	buf   []Event
	next  int
	total int64
}

func (r *eventRing) push(ev Event) {
	if r.buf == nil {
		r.buf = make([]Event, 0, ringCap)
	}
	if len(r.buf) < ringCap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % ringCap
	}
	r.total++
}

// StallDump is the structured post-mortem a repair watchdog's KindStall
// event triggers: the stall identity plus the emitting node's recent
// event window, oldest first.
type StallDump struct {
	// At is the simulated time (ns) the watchdog fired.
	At int64
	// Node is the node that declared the stall (the flow's source).
	Node int32
	// Flow and Batch identify the stalled work (Batch 0 for batch-less).
	Flow  uint32
	Batch uint32
	// Reason is the Stall* code from the event.
	Reason string
	// Seen is how many events the node emitted in total; Recent holds the
	// last min(Seen, ring capacity) of them.
	Seen   int64
	Recent []Event
}

func stallReason(aux int64) string {
	switch aux {
	case StallBatch:
		return "batch-stall"
	case StallFin:
		return "fin-stall"
	default:
		return "stall"
	}
}

// dump captures the post-mortem for a KindStall event at the ring's node,
// its retained events oldest first.
func (r *eventRing) dump(ev Event) StallDump {
	recent := make([]Event, 0, len(r.buf))
	recent = append(recent, r.buf[r.next:]...)
	recent = append(recent, r.buf[:r.next]...)
	return StallDump{
		At:     ev.At,
		Node:   ev.Node,
		Flow:   ev.Flow,
		Batch:  ev.Batch,
		Reason: stallReason(ev.Aux),
		Seen:   r.total,
		Recent: recent,
	}
}
