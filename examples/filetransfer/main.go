// Filetransfer: two concurrent MORE flows crossing a lossy mesh, with
// byte-exact verification of the delivered files and a per-node accounting
// of where transmissions happened — the multi-flow machinery of §4.3 in
// miniature, plus the per-batch delivery callback for streaming consumers.
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
	topo := experiments.TestbedTopology()
	simCfg := sim.DefaultConfig()
	simCfg.SenseRange = 84
	simCfg.RefFrameBytes = 1500
	s := sim.New(topo, simCfg)

	oracle := flow.NewOracle(topo, routing.ETXOptions{
		Threshold: graph.RouteThreshold, AckAware: true,
	})
	nodes := make([]*core.Node, topo.N())
	for i := range nodes {
		nodes[i] = core.NewNode(core.DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}

	type transfer struct {
		id       flow.ID
		src, dst graph.NodeID
		file     flow.File
	}
	transfers := []transfer{
		{1, 3, 17, flow.NewFile(256<<10, 1500, 11)},
		{2, 19, 2, flow.NewFile(256<<10, 1500, 22)},
	}

	remaining := len(transfers)
	for _, tr := range transfers {
		tr := tr
		// Stream batches to the "application" as they decode.
		nodes[tr.dst].OnDeliver = func(id flow.ID, batch uint32, natives [][]byte) {
			if batch == 0 {
				fmt.Printf("  [%v] flow %d: first batch decoded at node %d (%d packets)\n",
					s.Now(), id, tr.dst, len(natives))
			}
		}
		nodes[tr.dst].ExpectFlow(tr.id, tr.file, nil)
		if err := nodes[tr.src].StartFlow(tr.id, tr.dst, tr.file, func() {
			remaining--
		}); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("running %d concurrent MORE flows over the testbed...\n", len(transfers))
	s.RunWhile(3600*sim.Second, func() bool { return remaining > 0 })

	fmt.Println("\nresults:")
	for _, tr := range transfers {
		r := nodes[tr.dst].Result(tr.id)
		status := "FAILED VERIFICATION"
		if r.Verified && r.Completed {
			status = "byte-exact"
		}
		fmt.Printf("  flow %d (%d->%d): %.1f pkt/s, %s\n",
			tr.id, tr.src, tr.dst, r.Throughput(), status)
	}

	fmt.Println("\nper-node data transmissions (who carried the traffic):")
	for i, tx := range s.Counters.TxByNode {
		if tx > 0 {
			fmt.Printf("  node %-3d %6d\n", i, tx)
		}
	}
	fmt.Printf("total air time: %v over %v simulated\n", s.Counters.AirTime, s.Now())
}
