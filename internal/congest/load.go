package congest

// Load is a node's congestion signal set, exported by the layer for the
// load-aware cost plane (routing.CostModel): queue-depth EWMA, drop-rate
// EWMA, and credit-grant starvation EWMA, each normalized to [0, 1]. The
// layer updates the EWMAs as a side effect of its own queue decisions —
// pure observation, so tracking never perturbs traffic — and Score folds
// them into the scalar that routing penalties carry.
type Load struct {
	// Queue is the EWMA of the data-queue depth at enqueue decisions,
	// normalized by the hard cap (4×QueueLen): ~1 under sustained
	// overflow pressure, ~0 on an idle node.
	Queue float64
	// Drop is the EWMA of the drop indicator at enqueue decisions (tail
	// and CHOKe drops count; accepted frames decay it).
	Drop float64
	// Starve is the EWMA of the gate-starvation indicator at dequeue:
	// 1 when a backlogged queue released nothing (every frame pacing-
	// gated), 0 when a frame went to air.
	Starve float64
}

// loadAlpha is the EWMA gain. 1/16 remembers roughly the last few dozen
// queue decisions — long enough to ride out one batch endgame, short
// enough that a hotspot shows up within a couple of load-sampling ticks.
const loadAlpha = 1.0 / 16.0

// Score folds the signals into one scalar in [0, 1]. Drops dominate: a
// dropping node is shedding traffic it already accepted, the sharpest
// evidence of saturation. Standing queues get a small weight only — a
// busy MORE relay is backlogged *by design*, and pricing backlog heavily
// makes a bulk flow demote its own best forwarders (self-penalization,
// which oscillates: best path heats, gets priced out, cools, flips back).
// Starvation (credit gating) marks a neighborhood already throttled by
// receiver pacing.
func (ld Load) Score() float64 {
	s := 0.15*ld.Queue + 0.6*ld.Drop + 0.25*ld.Starve
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// loadState is the layer's always-on load tracking.
type loadState struct {
	load Load
	hwm  int64 // queue-depth high-water mark
}

// observeQueue folds one enqueue decision (post-decision depth, whether
// the frame was dropped) into the EWMAs and the high-water mark.
func (l *Layer) observeQueue(dropped bool) {
	depth := len(l.queue)
	if int64(depth) > l.loadst.hwm {
		l.loadst.hwm = int64(depth)
	}
	norm := float64(depth) / float64(4*l.cfg.QueueLen)
	if norm > 1 {
		norm = 1
	}
	ld := &l.loadst.load
	ld.Queue += loadAlpha * (norm - ld.Queue)
	ind := 0.0
	if dropped {
		ind = 1
	}
	ld.Drop += loadAlpha * (ind - ld.Drop)
}

// observeGate folds one dequeue outcome on a backlogged queue into the
// starvation EWMA: released == false means every queued frame was
// pacing-gated this opportunity.
func (l *Layer) observeGate(released bool) {
	ind := 1.0
	if released {
		ind = 0
	}
	l.loadst.load.Starve += loadAlpha * (ind - l.loadst.load.Starve)
}

// LoadSignals returns the current raw signal set.
func (l *Layer) LoadSignals() Load { return l.loadst.load }

// LoadByte quantizes the score to a byte (0 = unloaded, 255 = saturated),
// the unit the oracle cost model samples and prices.
func (l *Layer) LoadByte() uint8 {
	v := int(l.loadst.load.Score()*255 + 0.5)
	if v > 255 {
		v = 255
	}
	return uint8(v)
}

// QueueHWM returns the queue-depth high-water mark over the run.
func (l *Layer) QueueHWM() int64 { return l.loadst.hwm }
