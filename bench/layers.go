package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/coding"
	"repro/internal/experiments"
	"repro/internal/gf256"
	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/packet"
	"repro/internal/probe"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Layer drivers (-layers): each layer measured alone, through its public
// functions, on a fixed input. They say what a layer costs per operation;
// the traced runs say how much of a workload that layer is. A driver loops
// for at least a second and is run five times; the median is reported.

const (
	layerLoop = time.Second
	layerRuns = 5
)

// layerDriver measures one layer. run loops for at least d and returns one
// value per name.
type layerDriver struct {
	names []string
	units []string
	note  string
	run   func(d time.Duration) []float64
}

// sinks keep results alive so the compiler cannot drop the measured calls.
var (
	sinkByte  byte
	sinkBool  bool
	sinkFloat float64
	sinkInt   int
)

// secondsPerOp calls op in batches until d has passed and returns the
// seconds one call took.
func secondsPerOp(d time.Duration, batch int, op func()) float64 {
	ops := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < batch; i++ {
			op()
		}
		ops += batch
	}
	return time.Since(start).Seconds() / float64(ops)
}

// timed is the common driver shape: one metric, value = scale * seconds
// per operation.
func timed(name, unit, note string, scale float64, batch int, prepare func() func()) layerDriver {
	return layerDriver{
		names: []string{name},
		units: []string{unit},
		note:  note,
		run: func(d time.Duration) []float64 {
			return []float64{scale * secondsPerOp(d, batch, prepare())}
		},
	}
}

// throughput is timed's inverse: bytes per operation over seconds per
// operation, in GB/s.
func throughput(name, note string, bytes int, prepare func() func()) layerDriver {
	return layerDriver{
		names: []string{name},
		units: []string{"GB/s"},
		note:  note,
		run: func(d time.Duration) []float64 {
			return []float64{float64(bytes) / secondsPerOp(d, 64, prepare()) / 1e9}
		},
	}
}

// eventQueue drives the simulator's event queue alone: a two-node chain
// with no protocol attached, the queue held at `pending` timers, every
// fourth new timer cancelled and the rest fired.
func eventQueue(suffix string, pending int) layerDriver {
	names := []string{"sim.eventq.ns_per_event_" + suffix}
	units := []string{"ns"}
	if suffix == "deep" {
		names = append(names, "sim.eventq.allocs_per_event")
		units = append(units, "count")
	}
	return layerDriver{
		names: names,
		units: units,
		note:  fmt.Sprintf("%d pending timers, 25%% cancelled", pending),
		run: func(d time.Duration) []float64 {
			s := sim.New(graph.LossyChain(2, 15, 30), sim.DefaultConfig())
			rng := rand.New(rand.NewSource(1))
			fired := 0
			fire := func() { fired++ }
			delay := func() sim.Time { return sim.Time(1+rng.Intn(pending)) * sim.Microsecond }
			for i := 0; i < pending; i++ {
				s.After(delay(), fire)
			}
			const batch = 1024
			events := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for time.Since(start) < d {
				for i := 0; i < batch; i++ {
					e := s.After(delay(), fire)
					if i%4 == 0 {
						e.Cancel()
					}
				}
				target := fired + batch - batch/4
				s.RunWhile(math.MaxInt64, func() bool { return fired < target })
				events += batch
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			out := []float64{float64(elapsed.Nanoseconds()) / float64(events)}
			if len(names) > 1 {
				out = append(out, float64(after.Mallocs-before.Mallocs)/float64(events))
			}
			return out
		},
	}
}

// farthestPair returns the node with the largest finite ETX to node 0, and
// node 0: the longest route the topology offers to that destination.
func farthestPair(topo *graph.Topology) (src, dst graph.NodeID) {
	tab := routing.ETXToDestination(topo, 0, routing.DefaultETXOptions())
	best := 0.0
	for i, d := range tab.Dist {
		if !math.IsInf(d, 1) && d > best {
			best, src = d, graph.NodeID(i)
		}
	}
	return src, 0
}

func codingFixture() (*coding.Source, *coding.Pool) {
	rng := rand.New(rand.NewSource(42))
	natives := make([][]byte, 32)
	for i := range natives {
		natives[i] = make([]byte, 1500)
		rng.Read(natives[i])
	}
	src, err := coding.NewSource(natives, rng)
	if err != nil {
		panic(err) // the fixture is well formed by construction
	}
	pool := coding.NewPool(32, 1500)
	src.UsePool(pool)
	return src, pool
}

func fullBuffer(src *coding.Source, pool *coding.Pool) *coding.Buffer {
	buf := coding.NewBuffer(32, 1500)
	buf.UsePool(pool)
	for !buf.Full() {
		buf.Add(src.Next())
	}
	return buf
}

func layerDrivers() []layerDriver {
	simCfg := experiments.DefaultOptions().SimConfig()
	geometric := func(n int) *graph.Topology {
		topo, _ := graph.ConnectedGeometric(graph.DefaultGeometric(n), 1)
		return topo
	}
	var geo512 *graph.Topology
	topo512 := func() *graph.Topology {
		if geo512 == nil {
			geo512 = geometric(512)
		}
		return geo512
	}

	return []layerDriver{
		eventQueue("deep", 65536),
		eventQueue("shallow", 64),
		{
			names: []string{"linkstate.plane_ms_per_sim_s"},
			units: []string{"ms"},
			note:  "linkstate.Run, geometric-256, 20 simulated seconds",
			run: func(d time.Duration) []float64 {
				topo := geometric(256)
				const simSeconds = 20
				per := secondsPerOp(d, 1, func() {
					sinkInt += len(linkstate.Run(topo, linkstate.DefaultConfig(), simCfg, simSeconds*sim.Second))
				})
				return []float64{1e3 * per / simSeconds}
			},
		},
		timed("probe.measure_ms", "ms", "probe.Measure, testbed, 30 simulated seconds", 1e3, 1, func() func() {
			topo := experiments.TestbedTopology()
			return func() {
				sinkInt += probe.Measure(topo, probe.DefaultConfig(), simCfg, 30*sim.Second).N()
			}
		}),
		throughput("gf256.muladd_gbps", "MulAddSlice, 1500 B", 1500, func() func() {
			rng := rand.New(rand.NewSource(7))
			dst, src := make([]byte, 1500), make([]byte, 1500)
			rng.Read(dst)
			rng.Read(src)
			return func() { gf256.MulAddSlice(dst, src, 0x53) }
		}),
		throughput("gf256.combine_gbps", "Kernel.CombineInto, 32 x 1500 B, kernel "+gf256.ActiveKernel(), 32*1500, func() func() {
			rng := rand.New(rand.NewSource(99))
			rows := make([][]byte, 32)
			for i := range rows {
				rows[i] = make([]byte, 1500)
				rng.Read(rows[i])
			}
			coeffs := make([]byte, 32)
			rng.Read(coeffs)
			dst := make([]byte, 1500)
			kn := gf256.NewKernel()
			return func() { kn.CombineInto(dst, rows, coeffs) }
		}),
		timed("coding.encode_us", "us", "Source.Next, K = 32, 1500 B", 1e6, 64, func() func() {
			src, pool := codingFixture()
			return func() { pool.Put(src.Next()) }
		}),
		timed("coding.innovative_ns", "ns", "Buffer.Innovative on a full buffer, K = 32", 1e9, 1024, func() func() {
			src, pool := codingFixture()
			buf := fullBuffer(src, pool)
			vectors := make([][]byte, 256)
			for i := range vectors {
				p := src.Next()
				vectors[i] = append([]byte(nil), p.Vector...)
				pool.Put(p)
			}
			i := 0
			return func() {
				sinkBool = buf.Innovative(vectors[i%len(vectors)])
				i++
			}
		}),
		timed("coding.recode_us", "us", "Buffer.Recode on a full buffer, K = 32, 1500 B", 1e6, 64, func() func() {
			src, pool := codingFixture()
			buf := fullBuffer(src, pool)
			rng := rand.New(rand.NewSource(3))
			return func() { pool.Put(buf.Recode(rng)) }
		}),
		timed("coding.decode_us_per_pkt", "us", "Decoder.Add + Decode per native packet, K = 32, 1500 B", 1e6/32, 1, func() func() {
			src, pool := codingFixture()
			pkts := make([]*coding.Packet, 40)
			for i := range pkts {
				pkts[i] = src.Next()
			}
			dec := coding.NewDecoder(32, 1500)
			dec.UsePool(pool)
			return func() {
				dec.Reset()
				for i := 0; !dec.Complete() && i < len(pkts); i++ {
					q := pool.Get()
					q.CopyFrom(pkts[i])
					dec.Add(q)
				}
				natives, err := dec.Decode()
				if err != nil {
					panic(err) // 40 random combinations of 32 natives span them
				}
				sinkInt += len(natives)
			}
		}),
		timed("routing.etx_ms_512", "ms", "ETXToDestination, geometric-512", 1e3, 1, func() func() {
			topo := topo512()
			_, dst := farthestPair(topo)
			return func() {
				sinkFloat += routing.ETXToDestination(topo, dst, routing.DefaultETXOptions()).Dist[1]
			}
		}),
		timed("routing.eotx_ms_512", "ms", "EOTX, geometric-512", 1e3, 1, func() func() {
			topo := topo512()
			_, dst := farthestPair(topo)
			return func() { sinkFloat += routing.EOTX(topo, dst, routing.DefaultEOTXOptions())[1] }
		}),
		timed("routing.plan_ms_512", "ms", "BuildPlan, geometric-512, farthest pair", 1e3, 1, func() func() {
			topo := topo512()
			src, dst := farthestPair(topo)
			return func() {
				plan, err := routing.BuildPlan(topo, src, dst, routing.DefaultPlanOptions())
				if err != nil {
					panic(err) // the pair is reachable by construction
				}
				sinkInt += len(plan.Forwarders())
			}
		}),
		timed("graph.build_ms_512", "ms", "ConnectedGeometric, 512 nodes", 1e3, 1, func() func() {
			return func() { sinkInt += geometric(512).N() }
		}),
		timed("graph.prob_ns", "ns", "Topology.Prob, geometric-512, half links half random pairs", 1e9, 4096, func() func() {
			topo := topo512()
			rng := rand.New(rand.NewSource(5))
			pairs := make([][2]graph.NodeID, 4096)
			for i := range pairs {
				// Half the lookups hit a real link, half a random pair.
				a := graph.NodeID(rng.Intn(topo.N()))
				b := graph.NodeID(rng.Intn(topo.N()))
				if out := topo.OutEdges(a); i%2 == 0 && len(out) > 0 {
					b = out[rng.Intn(len(out))].Node
				}
				pairs[i] = [2]graph.NodeID{a, b}
			}
			i := 0
			return func() {
				p := pairs[i%len(pairs)]
				sinkFloat += topo.Prob(p[0], p[1])
				i++
			}
		}),
		timed("packet.more_codec_ns", "ns", "MOREHeader encode + decode, K = 32, 10 forwarders", 1e9, 1024, func() func() {
			h := &packet.MOREHeader{Type: packet.TypeData, FlowID: 7, SrcHash: 3, DstHash: 9, BatchID: 1,
				CodeVector: make([]byte, 32)}
			for i := range h.CodeVector {
				h.CodeVector[i] = byte(i + 1)
			}
			for i := 0; i < 10; i++ {
				h.Forwarders = append(h.Forwarders, packet.Forwarder{Node: graph.NodeID(i + 1), Credit: uint16(100 + i)})
			}
			buf := make([]byte, 0, 128)
			return func() {
				b, err := h.Encode(buf[:0])
				if err != nil {
					panic(err)
				}
				d, _, err := packet.DecodeMOREHeader(b)
				if err != nil {
					panic(err)
				}
				sinkByte += d.BatchID
			}
		}),
		timed("packet.lsa_codec_ns", "ns", "LSA encode + decode, 10 neighbours", 1e9, 1024, func() func() {
			l := &packet.LSA{Origin: 17, Seq: 99}
			for i := 0; i < 10; i++ {
				l.Neighbors = append(l.Neighbors, graph.NodeID(i+20))
				l.Probs = append(l.Probs, uint8(25*i))
			}
			buf := make([]byte, 0, 128)
			return func() {
				b, err := l.Encode(buf[:0])
				if err != nil {
					panic(err)
				}
				d, _, err := packet.DecodeLSA(b)
				if err != nil {
					panic(err)
				}
				sinkInt += len(d.Neighbors)
			}
		}),
		timed("telemetry.emit_ns", "ns", "Hub.Emit, default Hub", 1e9, 4096, func() func() {
			hub := telemetry.NewHub(telemetry.Config{})
			i := int64(0)
			return func() {
				hub.Emit(telemetry.Event{At: i * 1000, Dur: 500, Kind: telemetry.Kind(i % 3),
					Node: int32(i % 20), Peer: int32((i + 1) % 20), Bytes: 1500, Flow: 1})
				i++
			}
		}),
	}
}

// runLayers runs every layer driver and prints its metrics.
func runLayers(out io.Writer) map[string]metric {
	results := map[string]metric{}
	for _, drv := range layerDrivers() {
		runs := make([][]float64, len(drv.names))
		for r := 0; r < layerRuns; r++ {
			for i, v := range drv.run(layerLoop) {
				runs[i] = append(runs[i], v)
			}
		}
		for i, name := range drv.names {
			sort.Float64s(runs[i])
			m := metric{Value: stats.Median(runs[i]), Unit: drv.units[i]}
			results[name] = m
			fmt.Fprintf(out, "%-36s %12.4g %-6s [%.4g .. %.4g]  %s\n", name, m.Value, m.Unit,
				runs[i][0], runs[i][len(runs[i])-1], drv.note)
		}
	}
	return results
}
