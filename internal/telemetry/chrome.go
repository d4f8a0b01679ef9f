package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// chromeState buffers events for Chrome trace-event export. Events are
// kept in the compact Event form and serialized lazily by
// WriteChromeTrace; past the cap they are counted, not stored.
type chromeState struct {
	events    []Event
	truncated int64
}

// chromeCap bounds the events a Hub captures for the Chrome trace.
const chromeCap = 1 << 20

func (c *chromeState) observe(ev Event, cap int) {
	if len(c.events) >= cap {
		c.truncated++
		return
	}
	c.events = append(c.events, ev)
}

// Truncated returns how many events arrived after the Chrome trace buffer
// filled.
func (h *Hub) Truncated() int64 { return h.chrome.truncated }

// WriteChromeTrace writes the captured events as Chrome trace-event JSON
// (the JSON-array format; chrome://tracing and Perfetto both load it).
// Each node renders as a process row: transmissions are complete ("X")
// slices with their air time as the duration, everything else an instant
// ("i") event. Timestamps are simulated microseconds.
func (h *Hub) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, ev := range h.chrome.events {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if err := writeChromeEvent(bw, ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func writeChromeEvent(w *bufio.Writer, ev Event) error {
	// Trace-event timestamps are microseconds; keep sub-µs precision as a
	// fraction so adjacent events don't collapse.
	ts := float64(ev.At) / 1e3
	var err error
	if ev.Kind == KindTx {
		dur := float64(ev.Dur) / 1e3
		_, err = fmt.Fprintf(w,
			`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"peer":%d,"bytes":%d,"flow":%d,"ack":%d}}`,
			ev.Kind.String(), ts, dur, ev.Node, ev.Flow, ev.Peer, ev.Bytes, ev.Flow, ev.Aux)
	} else {
		_, err = fmt.Fprintf(w,
			`{"name":%q,"ph":"i","s":"t","ts":%.3f,"pid":%d,"tid":%d,"args":{"peer":%d,"flow":%d,"batch":%d,"aux":%d,"dur":%d}}`,
			ev.Kind.String(), ts, ev.Node, ev.Flow, ev.Peer, ev.Flow, ev.Batch, ev.Aux, ev.Dur)
	}
	return err
}
