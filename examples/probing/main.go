// Probing: the full measurement-to-routing pipeline of §4.1.2. Instead of
// feeding the protocols the simulator's ground-truth loss matrix, this
// example first runs the ETX probing campaign (periodic broadcast probes,
// windowed delivery-ratio estimation), builds the link-state oracle from the
// *estimated* matrix, and then transfers a file with MORE — exactly how the
// paper ran: "we run the ETX measurement module for 10 minutes... these
// measurements are then fed to all three protocols."
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/probe"
	"repro/internal/routing"
	"repro/internal/sim"
)

func main() {
	truth := experiments.TestbedTopology()
	simCfg := sim.DefaultConfig()
	simCfg.SenseRange = 84
	simCfg.RefFrameBytes = 1500

	// Phase 1: the probing campaign (padded to data size, as Roofnet does,
	// so the estimates reflect 1500 B frame loss).
	fmt.Println("phase 1: probing campaign (60 simulated seconds)...")
	probeCfg := probe.DefaultConfig()
	probeCfg.Window = 30
	est := probe.Measure(truth, probeCfg, simCfg, 60*sim.Second)
	meanErr, maxErr := probe.MatrixError(truth, est, graph.RouteThreshold)
	fmt.Printf("  estimated delivery matrix: mean error %.3f, max %.3f vs ground truth\n\n",
		meanErr, maxErr)

	// Phase 2: run MORE with routing state derived from the estimates —
	// while the channel itself still follows the ground truth.
	fmt.Println("phase 2: MORE transfer planned from estimated link state...")
	s := sim.New(truth, simCfg)
	oracle := flow.NewOracle(est, routing.ETXOptions{
		Threshold: graph.RouteThreshold, AckAware: true,
	})
	nodes := make([]*core.Node, truth.N())
	for i := range nodes {
		nodes[i] = core.NewNode(core.DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}
	file := flow.NewFile(256<<10, 1500, 13)
	src, dst := graph.NodeID(3), graph.NodeID(17)
	done := false
	nodes[dst].ExpectFlow(1, file, nil)
	if err := nodes[src].StartFlow(1, dst, file, func() { done = true }); err != nil {
		log.Fatal(err)
	}
	s.RunWhile(3600*sim.Second, func() bool { return !done })
	r := nodes[dst].Result(1)
	r.CountTransmissions(&s.Counters, 1)
	fmt.Printf("  %s\n\n", r)

	// Reference: the same transfer planned from ground truth.
	res := experiments.Run(truth, experiments.MORE,
		experiments.Pair{Src: src, Dst: dst}, func() experiments.Options {
			o := experiments.DefaultOptions()
			o.FileBytes = 256 << 10
			o.Seed = 13
			return o
		}())
	fmt.Printf("reference (ground-truth planning): %.1f pkt/s\n", res.Throughput())
	fmt.Printf("estimation cost: %.0f%% — probe-based ETX is good enough, as deployed\n",
		100*(1-r.Throughput()/res.Throughput()))
}
