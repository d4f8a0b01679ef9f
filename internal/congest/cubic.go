package congest

import (
	"math"

	"repro/internal/sim"
)

// The Cubic policy paces each source with a measured, per-flow adaptive
// window: each source maintains an RTT estimator fed by the feedback the
// network already sends it — credit grants from its downstream neighborhood
// (the Cubic policy keeps the Credit machinery's grants and gating in force)
// and the protocol's own end-to-end signals (MORE batch ACKs, ExOR batch
// completions, Srcr FIN/NACK round trips) — and paces its injection at
// W(t)/sRTT packets per second, where W(t) is the CUBIC window
//
//	W(t) = C·(t − K)³ + W_max,   K = ∛(W_max·(1 − β)/C)
//
// grown as a function of time since the last congestion event (Ha, Rhee &
// Xu, CUBIC). A congestion event is a batch stagnating (many sends, no
// advance) or a batch-less unicast source's MAC failure, and the response is
// CUBIC's: remember W_max, shrink to β·W_max, then grow back along the cubic
// curve, plateauing near the old operating point instead of sawtoothing
// through it. Everything is driven by simulated time and per-flow state, so
// runs stay deterministic.

// cubicDefaultRTT seeds the pacing rate before the first RTT sample.
const cubicDefaultRTT = 100 * sim.Millisecond

// cubicSampleCap bounds a single RTT sample: feedback that arrives long
// after the source's last transmission (a probe crawling through a gated
// neighborhood) measures the gate, not the path.
const cubicSampleCap = sim.Time(sim.Second)

// cubicMinWindow floors the window so a flow can always probe.
const cubicMinWindow = 2.0

type cubicFlow struct {
	tokens float64
	last   sim.Time

	wmax  float64  // window at the last congestion event
	epoch sim.Time // start of the current cubic growth epoch

	srtt   sim.Time // smoothed RTT (RFC 6298 shape), 0 before first sample
	rttvar sim.Time

	lastSend sim.Time // most recent committed source send (RTT anchor)

	// Stagnation bookkeeping.
	batch  uint32
	seen   bool
	sends  int
	nextMD int
	initTh int
}

func (l *Layer) cubicFlowFor(fid uint32, now sim.Time) *cubicFlow {
	cf, ok := l.cubic[fid]
	if !ok {
		cf = &cubicFlow{tokens: bucketDepth, last: now, wmax: cubicInitWindow, epoch: now}
		l.cubic[fid] = cf
	}
	return cf
}

// window evaluates the CUBIC curve at simulated time now.
func (cf *cubicFlow) window(now sim.Time) float64 {
	t := (now - cf.epoch).Seconds()
	k := math.Cbrt(cf.wmax * (1 - cubicBeta) / cubicC)
	w := cubicC*math.Pow(t-k, 3) + cf.wmax
	if w < cubicMinWindow {
		w = cubicMinWindow
	}
	return w
}

// rate converts the window into a pacing rate via the RTT estimate.
func (l *Layer) cubicRate(cf *cubicFlow, now sim.Time) float64 {
	srtt := cf.srtt
	if srtt <= 0 {
		srtt = cubicDefaultRTT
	}
	return min(max(cf.window(now)/srtt.Seconds(), rateMin), rateMax)
}

// cubicOnCongestion registers a congestion event: remember the operating
// point, shrink multiplicatively, restart the cubic clock.
func (l *Layer) cubicOnCongestion(cf *cubicFlow) {
	cf.wmax = cf.window(l.node.Now())
	cf.epoch = l.node.Now()
	// The curve restarts at β·W_max by construction: W(0) = W_max − C·K³ =
	// β·W_max for K as defined above.
	l.Stats.RateDecreases++
}

// cubicRTTSample folds one feedback round trip into the estimator
// (standard SRTT/RTTVAR smoothing).
func (cf *cubicFlow) cubicRTTSample(s sim.Time) {
	if s <= 0 {
		return
	}
	if s > cubicSampleCap {
		s = cubicSampleCap
	}
	if cf.srtt == 0 {
		cf.srtt = s
		cf.rttvar = s / 2
		return
	}
	d := cf.srtt - s
	if d < 0 {
		d = -d
	}
	cf.rttvar += (d - cf.rttvar) / 4
	cf.srtt += (s - cf.srtt) / 8
}

// cubicFeedback is called when network feedback for a flow arrives at this
// node — a credit grant from the downstream neighborhood, a batch ACK or
// batch completion, a Srcr NACK. Only sources hold cubic state (relay
// traffic is never window-paced), so feedback passing through relays is
// ignored here, and the round trip measured is "source's most recent
// transmission → feedback heard".
func (l *Layer) cubicFeedback(fid uint32) {
	if l.cubic == nil {
		return
	}
	cf, ok := l.cubic[fid]
	if !ok || cf.lastSend == 0 {
		return
	}
	cf.cubicRTTSample(l.node.Now() - cf.lastSend)
}

// cubicCanSend gates source-injected data frames on a token bucket whose
// rate tracks the CUBIC window over the measured RTT; relay frames pass
// untouched (the Credit side of the policy handles them).
func (l *Layer) cubicCanSend(info frameInfo) bool {
	if !info.isSource {
		return true
	}
	now := l.node.Now()
	cf := l.cubicFlowFor(info.flow, now)
	rate := l.cubicRate(cf, now)
	if now > cf.last {
		cf.tokens += rate * (now - cf.last).Seconds()
		if cf.tokens > bucketDepth {
			cf.tokens = bucketDepth
		}
		cf.last = now
	}
	if cf.tokens < 1 {
		wait := sim.Time((1 - cf.tokens) / rate * float64(sim.Second))
		l.ensureWake(now + wait + 1)
		return false
	}
	return true
}

// cubicCommit charges the bucket for an approved source send, anchors the
// RTT sampler, and runs the stagnation detector (the congestion signal the
// window reacts to on batch transports).
func (l *Layer) cubicCommit(info frameInfo) {
	if !info.isSource {
		return
	}
	now := l.node.Now()
	cf := l.cubicFlowFor(info.flow, now)
	if info.hasBatch {
		if !cf.seen || info.batch > cf.batch {
			cf.seen = true
			cf.batch = info.batch
			cf.sends = 0
			cf.nextMD = cf.initTh
		}
	}
	cf.tokens--
	cf.sends++
	cf.lastSend = now
	if info.hasBatch {
		if cf.initTh == 0 {
			cf.initTh = int(stagnationFactor * float64(max(1, batchK(info))))
			cf.nextMD = cf.initTh
		}
		if cf.nextMD > 0 && cf.sends >= cf.nextMD {
			l.cubicOnCongestion(cf)
			cf.nextMD *= 2
		}
	}
}

// batchK extracts the batch size from a data frame, defaulting to 32.
func batchK(info frameInfo) int {
	if info.more != nil {
		return info.more.K
	}
	return 32
}
