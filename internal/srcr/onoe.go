package srcr

import "repro/internal/sim"

// Onoe is the credit-based bit-rate selection the MadWifi driver uses
// (§4.4): it evaluates a window of transmission outcomes once per period;
// heavy retransmission drops the rate immediately, clean windows accumulate
// credit, and enough credit earns a raise. The four numbers are the classic
// MadWifi parameters the paper's autorate comparison ran with.
const (
	// onoePeriod is the time between rate decisions.
	onoePeriod = sim.Second
	// onoeRaiseCredit is the credit needed to move up one rate.
	onoeRaiseCredit = 10
	// onoeDownRetryFrac lowers the rate when retries/frame exceeds it.
	onoeDownRetryFrac float64 = 0.5
	// onoeCreditRetryFrac earns credit when retries/frame stays below it.
	onoeCreditRetryFrac float64 = 0.1
)

// Onoe tracks one neighbor's rate state.
type Onoe struct {
	rateIdx int
	credit  int

	// Window counters.
	frames   int
	retries  int
	failures int
}

// NewOnoe starts at the highest rate (as MadWifi does) and schedules the
// periodic evaluation on the node's timer wheel.
func NewOnoe(node *sim.Node) *Onoe {
	o := &Onoe{rateIdx: len(sim.Rates) - 1}
	var tick *sim.Event
	tick = node.NewTimer(func() {
		o.evaluate()
		tick.Reset(onoePeriod)
	})
	tick.Reset(onoePeriod)
	return o
}

// Rate returns the current bit-rate for this neighbor.
func (o *Onoe) Rate() sim.Bitrate { return sim.Rates[o.rateIdx] }

// Report feeds one MAC-completed frame into the window.
func (o *Onoe) Report(retries int, ok bool) {
	o.frames++
	o.retries += retries
	if !ok {
		o.failures++
	}
}

// evaluate applies the Onoe decision rules at the end of a window.
func (o *Onoe) evaluate() {
	if o.frames == 0 {
		return
	}
	retryFrac := float64(o.retries) / float64(o.frames)
	switch {
	case o.failures > o.frames/2 || retryFrac > onoeDownRetryFrac:
		if o.rateIdx > 0 {
			o.rateIdx--
		}
		o.credit = 0
	case retryFrac < onoeCreditRetryFrac:
		o.credit++
		if o.credit >= onoeRaiseCredit {
			if o.rateIdx < len(sim.Rates)-1 {
				o.rateIdx++
			}
			o.credit = 0
		}
	default:
		if o.credit > 0 {
			o.credit--
		}
	}
	o.frames, o.retries, o.failures = 0, 0, 0
}
