package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig says how to run one workload once.
type runConfig struct {
	// root is the repo root the scenario files are read from.
	root string
	// seed is the run's seed; 0 means the workload's pinned seed.
	seed int64
	// seconds is how long to keep starting executions.
	seconds float64
	// trace selects the traced run (per-layer metrics) over the timed one.
	trace bool
	// maxReps, when positive, caps the executions (the self-test runs one).
	maxReps int
	// golden is the digest an execution on the pinned seed must seal;
	// empty means the checked-in one (the self-test sets a wrong one).
	golden string
}

// realizationStride separates the seeds of a run's executions. fig4-2
// itself derives per-pair seeds at seed + 1000*i, so the stride is a prime
// far from any multiple of that.
const realizationStride = 1_000_003

// realization returns the seed of a run's i-th execution. Every execution
// of a run is another random realization of the same pinned workload: a
// run's medians are then taken over realizations, and runs on different
// seeds compare. The first realization is the run's seed itself.
func realization(seed int64, i int) int64 { return seed + int64(i)*realizationStride }

const (
	// setupReps is the least number of set-ups a run times, and
	// setupSeconds the least time it spends on them, so that a
	// sub-millisecond set-up is a median over hundreds of samples.
	setupReps    = 21
	setupSeconds = 0.5
)

// timeSetup times the workload's set-up path repeatedly and returns the
// samples in seconds, sorted.
func timeSetup(r runner) ([]float64, error) {
	var samples []float64
	begin := time.Now()
	for len(samples) < setupReps || time.Since(begin).Seconds() < setupSeconds {
		start := time.Now()
		if err := r.setup(); err != nil {
			return nil, err
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	sort.Float64s(samples)
	return samples, nil
}

// heapSampler records the peak of the bytes held by heap objects, live or
// not yet swept, by polling the runtime every 5 ms.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
			select {
			case <-tick.C:
			case <-h.stop:
				h.peak <- peak
				return
			}
		}
	}()
	return h
}

// Stop ends the sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	return <-h.peak
}

// executions runs realizations 0, 1, ... of the run's seed for about
// `seconds`, and at least one. With traced set every execution gets a
// telemetry collector, returned alongside. cal, when set, is sampled
// before every execution and after the last.
func executions(r runner, cfg runConfig, seconds float64, traced bool, cal *calibration) ([]execution, []*telemetryCollector, error) {
	var (
		execs      []execution
		collectors []*telemetryCollector
		measured   float64
	)
	begin := time.Now()
	for i := 0; ; i++ {
		if cal != nil {
			cal.keepUp(measured)
		}
		var tc *telemetryCollector
		if traced {
			tc = &telemetryCollector{}
			collectors = append(collectors, tc)
		}
		e, err := r.run(realization(cfg.seed, i), tc)
		if err != nil {
			return nil, nil, err
		}
		execs = append(execs, e)
		measured += e.wallS
		// Stop once less than half of another execution fits: the run then
		// measures for `seconds` on average, whatever an execution takes.
		elapsed := time.Since(begin).Seconds()
		if elapsed+elapsed/float64(2*len(execs)) >= seconds || len(execs) == cfg.maxReps {
			if cal != nil {
				cal.keepUp(measured)
			}
			return execs, collectors, nil
		}
	}
}

// warmUp runs the first realization untimed where the workload asks for
// it, and returns the digest the first counted execution must repeat.
func warmUp(w workload, r runner, cfg runConfig) (string, error) {
	if !w.warmup {
		return "", nil
	}
	e, err := r.run(realization(cfg.seed, 0), nil)
	return e.digest, err
}

// verify counts the operations of untraced executions and those that
// failed. An operation is one flow of one execution; it fails when the
// flow did not finish or did not verify, and every flow of an execution
// fails when it sealed the wrong digest: not the golden one on the pinned
// seed, or, for the first execution, not the warm-up's (the two ran the
// same realization).
func verify(r runner, cfg runConfig, execs []execution, repeat string) (attempted, failed int) {
	for i, e := range execs {
		attempted += e.flows
		wrong := e.seed == r.pinnedSeed() && cfg.golden != "" && e.digest != cfg.golden
		if i == 0 && repeat != "" && e.digest != repeat {
			wrong = true
		}
		if wrong {
			failed += e.flows
		} else {
			failed += e.failedFlows
		}
	}
	return attempted, failed
}

// column returns one field of every execution, sorted.
func column(execs []execution, f func(execution) float64) []float64 {
	out := make([]float64, len(execs))
	for i, e := range execs {
		out[i] = f(e)
	}
	sort.Float64s(out)
	return out
}

// highPercentile returns the highest percentile of sorted values that has
// at least ten samples beyond it; ok is false with fewer than eleven.
func highPercentile(sorted []float64) (p, v float64, ok bool) {
	n := len(sorted)
	if n <= 10 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), sorted[n-11], true
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
