//go:build !race

// Under the race detector sync.Pool drops a share of its Puts on purpose, so
// a count of the packets that come back cannot balance there.

package core_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/coding"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestFinishedRunReturnsEveryPacket(t *testing.T) {
	// One MORE flow of three K = 8 batches and a short last batch of 5 on a
	// small lossy mesh, run through the engine to Finish: every coded packet
	// the run drew from the free list is back on it afterwards — what a
	// relay that missed an ACK held when the K = 5 batch reached it, flushed
	// at the shape change, and what relays that missed the final ACK still
	// hold, handed back by Finish. Relay 3 hears the ACKs only from the
	// destination, so it misses many. The free list is stocked with known
	// packets first, more than a run ever holds at once, and drained after;
	// its payload size is this test's alone. On one P with the collector
	// off, sync.Pool finds every packet put back.
	const size, stock = 333, 1000
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
	pool := coding.NewPool(8, size)

	// Every node senses every other (graph.New places them all at the
	// origin), so no data frame is on the air when the final ACK lands.
	topo := graph.New(5)
	topo.SetLink(0, 1, 0.7)
	topo.SetLink(0, 2, 0.6)
	topo.SetLink(0, 3, 0.5)
	topo.SetLink(1, 4, 0.6)
	topo.SetLink(2, 4, 0.5)
	topo.SetLink(3, 4, 0.4)
	file := flow.NewFile((3*8+5)*size, size, 3)
	for seed := int64(1); seed <= 6; seed++ {
		ours := make(map[*coding.Packet]bool, stock)
		for len(ours) < stock {
			ours[pool.Get()] = true
		}
		for q := range ours {
			pool.Put(q)
		}
		opts := experiments.DefaultOptions()
		opts.PktSize, opts.BatchSize, opts.Seed = size, 8, seed
		opts.Deadline = 600 * sim.Second
		x := experiments.Execute(topo, opts, []experiments.Flow{{Proto: experiments.MORE, Src: 0, Dst: 4, File: file}}, nil)
		if r := x.Finish().Results[0]; !r.Completed || !r.Verified {
			t.Fatalf("seed %d: transfer failed: %+v", seed, r)
		}
		back := 0
		for range 2 * stock {
			if ours[pool.Get()] {
				back++
			}
		}
		if back != stock {
			t.Fatalf("seed %d: %d of the %d packets came back", seed, back, stock)
		}
	}
}
