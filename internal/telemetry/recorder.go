package telemetry

// recorderState is the flight recorder: one bounded ring of recent events
// per node, retained so a stall watchdog can dump the lead-up.
type recorderState struct {
	rings  map[int32]*eventRing
	stalls []StallDump
}

// ringCap bounds each node's flight-recorder ring (events).
const ringCap = 256

// maxStallDumps bounds the retained post-mortems; later stalls still fire
// OnStall but are only counted.
const maxStallDumps = 16

type eventRing struct {
	buf   []Event
	next  int
	total int64
}

func (m *recorderState) observe(ev Event) {
	r := m.rings[ev.Node]
	if r == nil {
		r = &eventRing{buf: make([]Event, 0, ringCap)}
		m.rings[ev.Node] = r
	}
	if len(r.buf) < ringCap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % ringCap
	}
	r.total++
}

// recent returns the node's retained events, oldest first.
func (m *recorderState) recent(node int32) []Event {
	r := m.rings[node]
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
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

// dump captures the post-mortem for a KindStall event and retains it
// (bounded by maxStallDumps).
func (m *recorderState) dump(ev Event) StallDump {
	d := StallDump{
		At:     ev.At,
		Node:   ev.Node,
		Flow:   ev.Flow,
		Batch:  ev.Batch,
		Reason: stallReason(ev.Aux),
		Recent: m.recent(ev.Node),
	}
	if r := m.rings[ev.Node]; r != nil {
		d.Seen = r.total
	}
	if len(m.stalls) < maxStallDumps {
		m.stalls = append(m.stalls, d)
	}
	return d
}
