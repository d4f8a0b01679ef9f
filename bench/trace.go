package main

import (
	"bytes"
	"path"
	"runtime/pprof"
	"strings"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// cpuLayers are the layers a traced run attributes CPU samples to: this
// repo's packages, with sim split by file (event.go is the event queue,
// mac.go the MAC, the rest the medium), the two executors folded into one,
// and two runtime buckets for stacks that hold no repo frame.
var cpuLayers = []string{
	"sim.eventq", "sim.medium", "sim.mac", "linkstate", "probe", "congest",
	"core", "exor", "srcr", "coding", "gf256", "routing", "graph", "flow",
	"packet", "telemetry", "executor", "rt.gc", "rt.other",
}

const repoPrefix = "repro/internal/"

// packageLayer maps a repo package to its layer where the two differ.
var packageLayer = map[string]string{
	"scenario":    "executor",
	"experiments": "executor",
	"stats":       "executor", // the figure reducers' helpers
	"trace":       "telemetry",
}

// gcWorkers name the runtime's background collector goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute charges one sampled stack (leaf first) to a layer: the
// innermost frame in a repo package owns the sample, so stdlib and runtime
// leaf time goes to the layer that called it. container/heap running under
// package sim is the event queue whichever sim file called it. The
// benchmark's own frames count as the executor: for fig4-2 the loop in
// this package is the executor. Stacks with no repo frame are the
// collector's if they hold a GC worker, and rt.other otherwise.
func attribute(frames []frame) string {
	heapSeen := false
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f.fn, "container/heap."):
			heapSeen = true
		case strings.HasPrefix(f.fn, repoPrefix):
			pkg, _, _ := strings.Cut(f.fn[len(repoPrefix):], ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if pkg == "sim" {
				switch {
				case heapSeen || path.Base(f.file) == "event.go":
					return "sim.eventq"
				case path.Base(f.file) == "mac.go":
					return "sim.mac"
				}
				return "sim.medium"
			}
			if l, ok := packageLayer[pkg]; ok {
				return l
			}
			return pkg
		case strings.HasPrefix(f.fn, "main."):
			return "executor"
		}
	}
	for _, f := range frames {
		for _, w := range gcWorkers {
			if strings.HasPrefix(f.fn, w) {
				return "rt.gc"
			}
		}
	}
	return "rt.other"
}

// layerShares turns profile samples into each layer's percentage of all
// sampling ticks. The shares sum to 100: a repo package this list does not
// know yet is counted under rt.other.
func layerShares(samples []stackSample) (shares map[string]float64, total int64) {
	shares = make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	for _, s := range samples {
		l := attribute(s.frames)
		if _, known := shares[l]; !known {
			l = "rt.other"
		}
		shares[l] += float64(s.count)
		total += s.count
	}
	for l := range shares {
		shares[l] *= 100 / float64(total)
	}
	return shares, total
}

// cpuProfile runs fn under the CPU profiler and returns the samples.
func cpuProfile(fn func() error) ([]stackSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

// countingSink is the benchmark's own telemetry sink: events by kind.
type countingSink struct {
	byKind [256]int64
}

func (c *countingSink) Emit(ev telemetry.Event) { c.byKind[ev.Kind]++ }

func (c *countingSink) total() int64 {
	var n int64
	for _, k := range c.byKind {
		n += k
	}
	return n
}

// telemetrySummary is what a traced run keeps of the Hub reports, all on
// the simulated clock.
type telemetrySummary struct {
	events        int64
	deliveryP50Ms float64 // median over flows of the per-flow p50
	deliveryP99Ms float64 // worst flow's p99
	queueWaitP99  float64 // worst node's p99
}

// telemetryCollector gathers the Hub reports of one execution. fig4-2 runs
// 120 simulations and a Hub is single-simulation state, so each simulation
// gets a fresh Hub feeding the one counting sink.
type telemetryCollector struct {
	sink    countingSink
	p50s    []float64
	p99     float64
	queue99 float64
}

func (t *telemetryCollector) newHub() *telemetry.Hub {
	h := telemetry.NewHub(telemetry.Config{})
	h.AddSink(&t.sink)
	return h
}

func (t *telemetryCollector) add(r *telemetry.Report) {
	if r == nil {
		return
	}
	for _, f := range r.Flows {
		if f.Flow == 0 || f.Delivery.Count == 0 {
			continue
		}
		t.p50s = append(t.p50s, f.Delivery.P50Ms)
		t.p99 = max(t.p99, f.Delivery.P99Ms)
	}
	for _, n := range r.Nodes {
		t.queue99 = max(t.queue99, n.QueueWaitSummary.P99Ms)
	}
}

func (t *telemetryCollector) summary() telemetrySummary {
	return telemetrySummary{
		events:        t.sink.total(),
		deliveryP50Ms: stats.Median(t.p50s),
		deliveryP99Ms: t.p99,
		queueWaitP99:  t.queue99,
	}
}
