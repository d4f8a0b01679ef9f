package congest

import "repro/internal/sim"

// The AIMD policy paces each source's injection with a per-flow token
// bucket, in the spirit of on-line end-to-end congestion control: the rate
// climbs additively while the transfer makes progress and halves when the
// network pushes back. Progress and pushback are both read from signals
// the source already has — a batch advancing (the protocol only moves on
// once the destination acknowledged) versus a batch stagnating (many sends
// with no advance: downstream is saturated or colliding), and, for
// batch-less unicast sources, MAC send failures. Forwarder traffic is
// never gated: relaying what was already injected cannot overcommit the
// network further, and throttling it would only strand in-flight data.

type aimdFlow struct {
	rate   float64 // packets/second
	tokens float64
	last   sim.Time
	batch  uint32
	seen   bool // batch field initialized
	sends  int  // sends within the current batch
	nextMD int  // stagnation threshold for the next decrease
	initTh int  // base stagnation threshold (StagnationFactor × K)
}

func (l *Layer) aimdFlowFor(fid uint32, now sim.Time) *aimdFlow {
	af, ok := l.aimd[fid]
	if !ok {
		af = &aimdFlow{rate: l.cfg.RateInit, tokens: l.cfg.BucketDepth, last: now}
		l.aimd[fid] = af
	}
	return af
}

func (l *Layer) aimdDecrease(af *aimdFlow) {
	af.rate = max(af.rate*rateBeta, rateMin)
	l.Stats.RateDecreases++
}

// aimdCanSend gates source-injected data frames on the token bucket;
// relay frames and non-source traffic pass untouched. It refills the
// bucket (idempotent in simulated time) but consumes nothing.
func (l *Layer) aimdCanSend(info frameInfo) bool {
	if !info.isSource {
		return true
	}
	now := l.node.Now()
	af := l.aimdFlowFor(info.flow, now)

	// Refill.
	if now > af.last {
		af.tokens += af.rate * (now - af.last).Seconds()
		if af.tokens > l.cfg.BucketDepth {
			af.tokens = l.cfg.BucketDepth
		}
		af.last = now
	}

	if af.tokens < 1 {
		// Gated: wake when the bucket refills to one packet.
		wait := sim.Time((1 - af.tokens) / af.rate * float64(sim.Second))
		l.ensureWake(now + wait + 1)
		return false
	}
	return true
}

// aimdCommit charges the token bucket for an approved source send and
// runs the AIMD bookkeeping: a batch advance is progress (additive
// increase); too many sends without one is stagnation (multiplicative
// decrease, with the threshold doubling so one stuck batch halves the
// rate geometrically rather than per send).
func (l *Layer) aimdCommit(info frameInfo) {
	if !info.isSource {
		return
	}
	af := l.aimdFlowFor(info.flow, l.node.Now())
	if info.hasBatch {
		if !af.seen || info.batch > af.batch {
			if af.seen {
				af.rate = min(af.rate+rateStep, rateMax)
			}
			af.seen = true
			af.batch = info.batch
			af.sends = 0
			af.nextMD = af.initTh
		}
	}
	af.tokens--
	af.sends++
	if info.hasBatch {
		if af.initTh == 0 {
			af.initTh = int(l.cfg.StagnationFactor * float64(max(1, batchK(info))))
			af.nextMD = af.initTh
		}
		if af.nextMD > 0 && af.sends >= af.nextMD {
			l.aimdDecrease(af)
			af.nextMD *= 2
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
