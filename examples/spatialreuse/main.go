// Spatial reuse (Fig 4-4): on a long corridor, a flow's first and last hop
// are outside each other's carrier-sense range and can transmit
// concurrently. MORE, running directly on 802.11, exploits this; ExOR's
// strict one-transmitter-at-a-time schedule cannot. This example finds such
// a flow and runs all three protocols over it.
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/graph"
)

func main() {
	opts := experiments.DefaultOptions()
	opts.FileBytes = 256 << 10

	// Hunt corridor draws for a qualifying pair: best path ≥ 4 hops with
	// the first-hop transmitter out of sense range of the last-hop one.
	var topo *graph.Topology
	var pair experiments.Pair
	found := false
	for seed := int64(1); seed < 60 && !found; seed++ {
		t := graph.Corridor(14, 360, 15, 28, seed)
		prs := experiments.SpatialReusePairs(t, 4)
		if len(prs) > 0 {
			topo, pair, found = t, prs[0], true
		}
	}
	if !found {
		fmt.Fprintln(os.Stderr, "no spatial-reuse pair found")
		os.Exit(1)
	}

	hops := topo.HopCount(pair.Src, pair.Dst, graph.RouteThreshold)
	fmt.Printf("corridor flow %d -> %d (%d hops); first and last hop can transmit concurrently\n\n",
		pair.Src, pair.Dst, hops)

	fmt.Printf("%-8s %12s %14s\n", "proto", "pkt/s", "tx (total)")
	var more, exor float64
	for _, proto := range []experiments.Protocol{experiments.Srcr, experiments.ExOR, experiments.MORE} {
		rs, counters := experiments.RunWithCounters(topo, proto, []experiments.Pair{pair}, opts)
		tput := rs[0].Throughput()
		fmt.Printf("%-8v %12.1f %14d\n", proto, tput, counters.Transmissions)
		switch proto {
		case experiments.MORE:
			more = tput
		case experiments.ExOR:
			exor = tput
		}
	}
	fmt.Printf("\nMORE over ExOR: %+.0f%% — the gain the paper attributes to spatial reuse\n",
		100*(more/exor-1))
	fmt.Println("(the schedule forces ExOR's distant hops to take turns; MORE's 802.11")
	fmt.Println(" broadcasts let them run in parallel)")
}
