// Motivating example (Fig 1-1 of the thesis): a source, a relay R, and a
// destination that overhears about half the source's transmissions
// directly. Without coding, R cannot know which packets the destination
// already has and wastes transmissions; with random network coding, every
// packet R sends is useful regardless. The example runs both MORE and
// traditional best-path routing on the diamond and shows the relay's
// transmission count dropping to roughly the overheard complement.
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
	// src(0) --0.95--> R(1) --0.95--> dst(2), with a 0.49 overhear link
	// src -> dst, as in Fig 1-1.
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.95)
	topo.SetLink(1, 2, 0.95)
	topo.SetLink(0, 2, 0.49)

	fmt.Println("Fig 1-1 diamond: dst overhears ~49% of src's packets directly.")
	fmt.Println()

	// Theory: Algorithm 1 says R only needs to forward the complement.
	plan, err := routing.BuildPlan(topo, 0, 2, routing.PlanOptions{
		Metric: routing.OrderETX,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 1: z(src)=%.2f, z(R)=%.2f  (R forwards only what dst missed)\n\n",
		plan.Z[0], plan.Z[1])

	// Practice: run MORE and count per-node transmissions.
	file := flow.NewFile(128*1500, 1500, 7)
	simCfg := sim.DefaultConfig()
	simCfg.RefFrameBytes = 1500
	s := sim.New(topo, simCfg)
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.1, AckAware: true})
	nodes := make([]*core.Node, 3)
	for i := range nodes {
		nodes[i] = core.NewNode(core.DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}
	done := false
	nodes[2].ExpectFlow(1, file, nil)
	if err := nodes[0].StartFlow(1, 2, file, func() { done = true }); err != nil {
		log.Fatal(err)
	}
	s.RunWhile(600*sim.Second, func() bool { return !done })
	r := nodes[2].Result(1)
	r.CountTransmissions(&s.Counters, 1)
	fmt.Printf("MORE: %s\n", r)
	fmt.Printf("  src transmitted %d coded packets, R only %d (%.0f%% of src)\n",
		s.Counters.TxByNode[0], s.Counters.TxByNode[1],
		100*float64(s.Counters.TxByNode[1])/float64(s.Counters.TxByNode[0]))
	fmt.Printf("  R never had to learn WHICH packets dst overheard: random\n")
	fmt.Printf("  combinations are useful with probability ≈ 255/256.\n\n")

	// Baseline: traditional routing sends everything through R.
	res := experiments.Run(topo, experiments.Srcr, experiments.Pair{Src: 0, Dst: 2},
		experiments.Options{
			FileBytes: 128 * 1500, PktSize: 1500, BatchSize: 32,
			DataRate: sim.Rate5_5, Seed: 7, Deadline: 600 * sim.Second,
		})
	fmt.Printf("Srcr (best path, no opportunism): %.1f pkt/s vs MORE %.1f pkt/s (%.2fx)\n",
		res.Throughput(), r.Throughput(), r.Throughput()/res.Throughput())
}
