package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// txMark is one transmission start: when, and at which node.
type txMark struct {
	at   sim.Time
	node int
}

// txLog is the -trace telemetry sink: it keeps the (time, node) of every
// KindTx event — all the timeline needs — for the whole run, so no column
// is lost however long the run is.
type txLog []txMark

// Emit implements telemetry.Sink.
func (l *txLog) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.KindTx {
		*l = append(*l, txMark{at: sim.Time(ev.At), node: int(ev.Node)})
	}
}

// timeline renders an ASCII activity strip per node over [from, to): each
// column is one bucket of the interval; a node's row marks buckets in which
// it transmitted. It visualizes medium sharing — concurrent marks in one
// column are spatial reuse (or collisions), the overlap §4.2.3 credits for
// MORE's gains.
func (l txLog) timeline(from, to sim.Time, width int) string {
	if width <= 0 {
		width = 72
	}
	if to <= from {
		return ""
	}
	bucket := (to - from) / sim.Time(width)
	if bucket <= 0 {
		bucket = 1
	}
	marks := map[int][]bool{}
	for _, m := range l {
		if m.node < 0 || m.at < from || m.at >= to {
			continue
		}
		row, ok := marks[m.node]
		if !ok {
			row = make([]bool, width)
			marks[m.node] = row
		}
		row[min(int((m.at-from)/bucket), width-1)] = true
	}
	ids := make([]int, 0, len(marks))
	for id := range marks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v .. %v (%v per column)\n", from, to, bucket)
	for _, id := range ids {
		fmt.Fprintf(&b, "node %-3d |", id)
		for _, on := range marks[id] {
			if on {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// timelineEnd is where the -trace timeline stops: the latest flow finish
// (one second when nothing finished, so a stuck run still shows its start).
func timelineEnd(flows []scenario.FlowOutcome) sim.Time {
	end := sim.Time(0)
	for _, f := range flows {
		end = max(end, f.Result.End)
	}
	if end == 0 {
		return sim.Second
	}
	return end
}
