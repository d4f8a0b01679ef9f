// Quickstart: build a simulated 20-node mesh, transfer a file with MORE,
// and print the throughput — the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

func main() {
	// The simulated analogue of the paper's 20-node, 3-floor testbed.
	topo := experiments.TestbedTopology()

	// The simulator: 802.11b at 5.5 Mb/s, CSMA/CA, lossy broadcast.
	simCfg := sim.DefaultConfig()
	simCfg.SenseRange = 84 // carrier sense covers the building
	simCfg.RefFrameBytes = 1500
	s := sim.New(topo, simCfg)

	// Every node runs MORE. The oracle plays the role of the paper's
	// pre-measured ETX link state, shared by all nodes.
	oracle := flow.NewOracle(topo, routing.ETXOptions{
		Threshold: graph.RouteThreshold, AckAware: true,
	})
	nodes := make([]*core.Node, topo.N())
	for i := range nodes {
		nodes[i] = core.NewNode(core.DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}

	// Transfer a 512 KB file from node 3 to node 17.
	file := flow.NewFile(512<<10, 1500, 42)
	src, dst := graph.NodeID(3), graph.NodeID(17)
	done := false
	nodes[dst].ExpectFlow(1, file, nil)
	if err := nodes[src].StartFlow(1, dst, file, func() { done = true }); err != nil {
		log.Fatal(err)
	}
	s.RunWhile(3600*sim.Second, func() bool { return !done })

	r := nodes[dst].Result(1)
	r.CountTransmissions(&s.Counters, 1)
	fmt.Println(r)
	fmt.Printf("verified: %v, network transmissions: %d (%.2f per packet)\n",
		r.Verified, s.Counters.Transmissions,
		float64(s.Counters.Transmissions)/float64(r.PacketsDelivered))
}
