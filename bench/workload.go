package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// workload is one pinned input of the benchmark.
type workload struct {
	name string
	why  string
	// spec is the scenario file, relative to the repo root; empty for the
	// one workload written in this package.
	spec string
	// specSHA256 pins the scenario file: a claim is only comparable with
	// its baseline when both ran the same input.
	specSHA256 string
	// warmup runs one untimed execution before the timed ones. It is off
	// where one execution takes more than half of a run's measuring time.
	warmup bool
}

var workloads = []workload{
	{
		name:       "learned-512",
		why:        "control plane at scale: 484k probe/LSA frames and 12M receptions for 22 data packets; the sim event heap and linkstate tables do most of the work, coding and congest none",
		spec:       "scenarios/learned-512.json",
		specSHA256: "4070da09c32aa6c0100f9a822e9a87105828d71a04a58b97750451dd009dc5ce",
		warmup:     false,
	},
	{
		name:       "multiflow-512",
		why:        "data plane at scale under oracle state: gf256, credit congestion control, core and coding carry it, linkstate and probe are idle",
		spec:       "scenarios/multi-flow-congestion-512.json",
		specSHA256: "b8a43f8e42103d097d8624b385660065160975abcf017c5d5f75b92c4f250b25",
		warmup:     true,
	},
	{
		name:   "fig4-2",
		why:    "the paper's headline figure: MORE, ExOR and Srcr over 40 testbed pairs, 120 small simulations through the experiments executor, so per-run construction and file generate/verify count",
		warmup: true,
	},
	{
		name:       "soak-churn",
		why:        "the same layers on small state: 20 nodes for 480 simulated seconds, a shallow event heap, the MAC unicast/ACK/retry path, LSA aging under node churn, srcr push traffic",
		spec:       "scenarios/soak-churn.json",
		specSHA256: "e0311bb46b1b8f176ca6018aa5dbc90dd8e763ba7dd56877ddd0c4881b442cb4",
		warmup:     true,
	},
}

// quickWorkload is the self-test's input (-quick): one small scenario that
// runs in well under a second. It is not part of the benchmark.
var quickWorkload = workload{
	name:       "quick",
	why:        "self-test: the paper's single-flow baseline on the 20-node testbed",
	spec:       "scenarios/paper-testbed.json",
	specSHA256: "bd38539cb21c3bf100d00db18491dd6533e13c5a44256e1a598d5887d3499990",
	warmup:     false,
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("no workload %q", name)
}

// layerCounts are the exact per-layer counts a sealed result carries.
type layerCounts struct {
	tx, rxOK, collisions, chanLosses int64
	macAcks, unicastFail             int64
	floodTx, probeTx                 int64
	enqueued, drops                  int64
	grantTx, gateSkips               int64
}

func (c *layerCounts) addCounters(k sim.Counters) {
	c.tx += k.Transmissions
	c.rxOK += k.Deliveries
	c.collisions += k.Collisions
	c.chanLosses += k.ChannelLosses
	c.macAcks += k.MACAcks
	c.unicastFail += k.UnicastFailures
}

// receptions is every reception outcome the medium resolved, the
// simulator's unit of work.
func (c layerCounts) receptions() int64 { return c.rxOK + c.collisions + c.chanLosses }

// execution is the outcome of one complete run of a workload, from its
// spec to its sealed result.
type execution struct {
	seed int64
	// wallS is host time; simS is how far the simulated clock advanced
	// (summed over the simulations of fig4-2).
	wallS, simS float64
	// flowS sums the simulated durations of the flows, and delivered the
	// packets they handed to their destinations.
	flowS     float64
	delivered int
	// flows is the number of operations, failedFlows those that did not
	// finish or did not verify.
	flows, failedFlows int
	digest             string
	allocBytes         uint64
	peakHeap           uint64
	mallocs            uint64
	gcCycles           uint32
	gcPauseNs          uint64
	counts             layerCounts
	// gainVsExor and gainVsSrcr are MORE's median-throughput gains in
	// percent (fig4-2 only).
	gainVsExor, gainVsSrcr float64
}

// runner executes one workload.
type runner interface {
	// setup does what an execution does before the first event: it is
	// timed on its own so that work moved there shows.
	setup() error
	// run executes the workload on one seed. tc, when set, receives the
	// telemetry of every simulation.
	run(seed int64, tc *telemetryCollector) (execution, error)
	// pinnedSeed is the seed the checked-in input names, and goldenDigest
	// the digest an execution on it must seal ("" when none is checked in).
	pinnedSeed() int64
	goldenDigest() string
}

// newRunner loads a workload's inputs from the repo rooted at root and
// checks they are the pinned ones.
func newRunner(w workload, root string) (runner, error) {
	if w.spec == "" {
		topo := experiments.TestbedTopology()
		return &fig42Runner{topo: topo, pairs: experiments.RandomPairs(topo, fig42Pairs, 1)}, nil
	}
	path := filepath.Join(root, w.spec)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != w.specSHA256 {
		return nil, fmt.Errorf("%s changed (sha256 %s, pinned %s): re-pin in a benchmark PR", w.spec, got, w.specSHA256)
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r := &scenarioRunner{path: path, seed: spec.Seed}
	if r.spec, err = pinStructure(spec); err != nil {
		return nil, err
	}
	// Goldens are read live, so a behaviour PR that regenerates them stays
	// self-consistent on both of its commits.
	golden := filepath.Join(root, "scenarios", "golden", spec.Name+".json")
	gdata, err := os.ReadFile(golden)
	if err != nil {
		return nil, err
	}
	var g struct{ Digest string }
	if err := json.Unmarshal(gdata, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", golden, err)
	}
	if g.Digest == "" {
		return nil, fmt.Errorf("%s: no digest", golden)
	}
	r.golden = g.Digest
	return r, nil
}

// pinStructure fixes everything a scenario derives from its seed except
// the random realization: the topology, the drawn source-destination pairs
// and the churn schedule stay those of the checked-in seed, so that -seed
// changes the channel draws, the back-offs and the file contents of the
// same network and the same traffic, not the workload. On the checked-in
// seed the result is byte-identical to running the file as it is.
func pinStructure(spec *scenario.Spec) (*scenario.Spec, error) {
	s := *spec
	if s.Topology.Seed == 0 {
		s.Topology.Seed = s.Seed
	}
	if s.Churn != nil && s.Churn.Seed == 0 {
		c := *s.Churn
		c.Seed = s.Seed
		s.Churn = &c
	}
	auto := 0
	for _, f := range s.Flows {
		if f.AutoPair {
			auto++
		}
	}
	if auto == 0 {
		return &s, nil
	}
	topo, err := s.Topology.Build(s.Seed)
	if err != nil {
		return nil, err
	}
	pairs := experiments.RandomPairs(topo, auto, s.Seed)
	if len(pairs) < auto {
		return nil, fmt.Errorf("scenario %s: only %d of %d auto pairs reachable", s.Name, len(pairs), auto)
	}
	s.Flows = append([]scenario.FlowSpec(nil), s.Flows...)
	next := 0
	for i := range s.Flows {
		f := &s.Flows[i]
		if f.AutoPair {
			f.AutoPair = false
			f.Src, f.Dst = int(pairs[next].Src), int(pairs[next].Dst)
			next++
		}
	}
	return &s, nil
}

// measured runs fn and fills in the host-side cost of an execution: wall
// time, the peak of the heap, and what the allocator and the collector did
// meanwhile. It collects first, so every execution starts from the same
// heap.
func measured(e *execution, fn func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler()
	start := time.Now()
	err := fn()
	e.wallS = time.Since(start).Seconds()
	e.peakHeap = sampler.Stop()
	runtime.ReadMemStats(&after)
	e.allocBytes = after.TotalAlloc - before.TotalAlloc
	e.mallocs = after.Mallocs - before.Mallocs
	e.gcCycles = after.NumGC - before.NumGC
	e.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return err
}

// scenarioRunner runs a scenario file through scenario.Run.
type scenarioRunner struct {
	path   string
	spec   *scenario.Spec
	seed   int64
	golden string
}

func (r *scenarioRunner) pinnedSeed() int64    { return r.seed }
func (r *scenarioRunner) goldenDigest() string { return r.golden }

func (r *scenarioRunner) setup() error {
	spec, err := scenario.Load(r.path)
	if err != nil {
		return err
	}
	topo, err := spec.Topology.Build(spec.Seed)
	if err != nil {
		return err
	}
	opts := spec.Options()
	sim.New(topo, opts.SimConfig())
	experiments.NewControlPlane(topo, opts)
	return nil
}

func (r *scenarioRunner) run(seed int64, tc *telemetryCollector) (execution, error) {
	e := execution{seed: seed}
	spec := *r.spec
	spec.Seed = seed
	var res *scenario.Result
	err := measured(&e, func() (err error) {
		if tc != nil {
			res, err = scenario.RunWith(&spec, tc.newHub())
		} else {
			res, err = scenario.Run(&spec)
		}
		return err
	})
	if err != nil {
		return e, err
	}
	if tc != nil {
		tc.add(res.Telemetry)
	}
	e.simS = res.End.Seconds()
	e.digest = res.Digest
	for _, f := range res.Flows {
		e.flows++
		if !f.Done || !f.Result.Verified {
			e.failedFlows++
		}
		e.delivered += f.Result.PacketsDelivered
		e.flowS += f.Result.Duration().Seconds()
	}
	e.counts.addCounters(res.Counters)
	e.counts.floodTx, e.counts.probeTx = res.FloodTx, res.ProbeTx
	cc := res.CCStats
	e.counts.enqueued = cc.Enqueued
	e.counts.drops = cc.TailDrops + cc.ChokeDrops + cc.StaleDrops
	e.counts.grantTx, e.counts.gateSkips = cc.GrantTx, cc.GateSkips
	return e, nil
}

// fig42Pairs is the number of source-destination pairs of the fig4-2
// workload (the paper draws 200; 40 keeps an execution near two seconds).
const fig42Pairs = 40

// fig42Runner is the paper's Fig 4-2 loop: MORE, ExOR and Srcr each
// transfer a 512 KiB file between the same 40 random testbed pairs, one
// simulation per transfer, serially, through experiments.RunWithCounters.
type fig42Runner struct {
	topo  *graph.Topology
	pairs []experiments.Pair
}

func (r *fig42Runner) pinnedSeed() int64    { return 1 }
func (r *fig42Runner) goldenDigest() string { return "" }

func (r *fig42Runner) setup() error {
	topo := experiments.TestbedTopology()
	if got := len(experiments.RandomPairs(topo, fig42Pairs, 1)); got != fig42Pairs {
		return fmt.Errorf("fig4-2: drew %d of %d pairs", got, fig42Pairs)
	}
	return nil
}

func (r *fig42Runner) run(seed int64, tc *telemetryCollector) (execution, error) {
	e := execution{seed: seed}
	protos := []experiments.Protocol{experiments.MORE, experiments.ExOR, experiments.Srcr}
	throughput := make([][]float64, len(protos))
	hash := sha256.New()
	enc := json.NewEncoder(hash)
	err := measured(&e, func() error {
		opts := experiments.DefaultOptions()
		opts.Parallel = 1
		for pi, proto := range protos {
			for i, pair := range r.pairs {
				o := opts
				o.Seed = seed + int64(1000*i)
				var hub *telemetry.Hub
				if tc != nil {
					hub = tc.newHub()
					o.Telemetry = hub
				}
				results, counters := experiments.RunWithCounters(r.topo, proto, []experiments.Pair{pair}, o)
				if hub != nil {
					tc.add(hub.Report())
				}
				res := results[0]
				if err := enc.Encode(res); err != nil {
					return err
				}
				e.flows++
				if !res.Completed || !res.Verified {
					e.failedFlows++
				}
				e.delivered += res.PacketsDelivered
				e.flowS += res.Duration().Seconds()
				e.counts.addCounters(counters)
				throughput[pi] = append(throughput[pi], res.Throughput())
			}
		}
		return nil
	})
	if err != nil {
		return e, err
	}
	e.simS = e.flowS
	e.digest = hex.EncodeToString(hash.Sum(nil))
	med := make([]float64, len(protos))
	for pi := range protos {
		med[pi] = stats.Median(throughput[pi])
	}
	e.gainVsExor = 100 * (med[0]/med[1] - 1)
	e.gainVsSrcr = 100 * (med[0]/med[2] - 1)
	return e, nil
}
