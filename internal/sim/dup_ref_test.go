package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// dupRef is the duplicate suppression dupTable replaced, kept as the
// reference: a set of the last `window` recorded (from<<40 | seq) keys and
// the ring that remembers their insertion order.
type dupRef struct {
	window int
	seen   map[uint64]struct{}
	ring   []uint64
	next   int // ring slot holding the oldest key
}

func newDupRef(window int) *dupRef {
	return &dupRef{window: window, seen: make(map[uint64]struct{})}
}

func (r *dupRef) duplicate(from graph.NodeID, seq uint64) bool {
	key := uint64(from)<<40 | seq
	if _, dup := r.seen[key]; dup {
		return true
	}
	if len(r.ring) < r.window {
		r.ring = append(r.ring, key)
	} else {
		delete(r.seen, r.ring[r.next])
		r.ring[r.next] = key
		r.next = (r.next + 1) % r.window
	}
	r.seen[key] = struct{}{}
	return false
}

// TestDupTableMatchesReference drives the per-sender table and the map and
// ring it replaced with the same stream — what a MAC can hear: each sender's
// sequence numbers never decrease, its latest frame may come again — and
// requires the same verdict at every step. The senders are drawn unevenly so
// that some return only after more than a window of other keys, and the
// receiver reboots mid-stream.
func TestDupTableMatchesReference(t *testing.T) {
	const steps = 200000
	for _, window := range []int{1, 8, dupWindow} {
		for _, senders := range []int{1, 2, 7, 40} {
			rng := rand.New(rand.NewSource(int64(window*100 + senders)))
			ref, tab := newDupRef(window), dupTable{}
			latest := make([]uint64, senders)
			forgotten := make([]bool, senders) // by a reboot, not by eviction
			dups, evicted := 0, 0
			for step := 0; step < steps; step++ {
				if step == steps/2 { // revive: both forget everything
					ref, tab = newDupRef(window), dupTable{}
					for i := range forgotten {
						forgotten[i] = true
					}
				}
				// Half-normal over the senders: the high IDs are heard once in
				// hundreds to tens of thousands of steps.
				from := min(int(math.Abs(rng.NormFloat64())*float64(senders)/4.5), senders-1)
				retry := latest[from] > 0 && rng.Intn(3) == 0
				if !retry {
					latest[from] += uint64(1 + rng.Intn(3)) // a gap: frames this MAC never heard
				}
				want := ref.duplicate(graph.NodeID(from), latest[from])
				got := tab.duplicate(graph.NodeID(from), latest[from], uint64(window))
				if got != want {
					t.Fatalf("window %d, %d senders, step %d: key (%d, %d) retry=%v: table says duplicate=%v, reference %v",
						window, senders, step, from, latest[from], retry, got, want)
				}
				if want {
					dups++
				} else if retry && !forgotten[from] {
					evicted++ // accepted again: its original left the window
				}
				forgotten[from] = false
			}
			if len(tab.senders) > senders {
				t.Errorf("window %d: table grew to %d entries for %d senders", window, len(tab.senders), senders)
			}
			if dups == 0 {
				t.Errorf("window %d, %d senders: no duplicate in %d steps", window, senders, steps)
			}
			// Two or seven senders never stay away for 4096 keys.
			if (window <= 8 && senders > 1 || senders == 40) && evicted < 3 {
				t.Errorf("window %d, %d senders: eviction between an original and its retry never happened", window, senders)
			}
		}
	}
}

// lossyUnicaster sends numbered unicast frames to a fixed peer for ever and
// checks what it is handed: per sender, the sequence numbers of the frames
// the MAC passes up never decrease.
type lossyUnicaster struct {
	t       *testing.T
	node    *Node
	to      graph.NodeID
	lastSeq map[graph.NodeID]uint64
}

func (p *lossyUnicaster) Init(n *Node) { p.node = n; n.Wake() }
func (p *lossyUnicaster) Pull() *Frame { return &Frame{To: p.to, Bytes: 300} }
func (p *lossyUnicaster) Sent(*Frame, bool) {
	p.node.Wake()
}
func (p *lossyUnicaster) Receive(f *Frame) {
	if f.seq < p.lastSeq[f.From] {
		p.t.Errorf("node %d was handed (%d, %d) after (%d, %d)", p.node.ID(), f.From, f.seq, f.From, p.lastSeq[f.From])
	}
	p.lastSeq[f.From] = f.seq
}

// TestMACSequencePerSenderNeverDecreases checks the precondition dupTable's
// exactness rests on: the (from, seq) stream one sender puts on the air — of
// which every receiver hears a subsequence, in order, a sender's frames never
// overlapping each other — is non-decreasing, across retries, retry
// exhaustion, crashes with a frame in flight and reboots.
func TestMACSequencePerSenderNeverDecreases(t *testing.T) {
	const n = 5
	topo := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			topo.SetLink(graph.NodeID(i), graph.NodeID(j), 0.15+0.2*float64((i+j)%4))
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 5
	s := New(topo, cfg)
	for i := 0; i < n; i++ {
		s.Attach(graph.NodeID(i), &lossyUnicaster{t: t, to: graph.NodeID((i + 1 + i%2) % n), lastSeq: map[graph.NodeID]uint64{}})
	}
	// Every data transmission is in s.active for at least the event that
	// started it, so looking after every event sees them all.
	type sighting struct {
		seq   uint64
		start Time
	}
	last := make([]sighting, n)
	frames, retries := 0, 0
	rng := rand.New(rand.NewSource(6))
	var churn func()
	churn = func() {
		if id := graph.NodeID(rng.Intn(n)); s.Node(id).Failed() {
			s.RecoverNode(id)
		} else {
			s.FailNode(id)
		}
		s.After(Time(1+rng.Intn(40))*Millisecond, churn)
	}
	churn()
	s.RunWhile(20*Second, func() bool {
		for _, tx := range s.active {
			if tx.frame.isMACAck {
				continue
			}
			from, seen := tx.from.id, sighting{tx.frame.seq, tx.start}
			if prev := last[from]; seen != prev {
				if seen.seq < prev.seq {
					t.Fatalf("at %v node %d put seq %d on the air after seq %d", s.Now(), from, seen.seq, prev.seq)
				}
				if seen.seq == prev.seq {
					retries++
				}
				frames++
				last[from] = seen
			}
		}
		return !t.Failed()
	})
	if frames < 5000 || retries < 500 || s.Counters.UnicastFailures < 50 || s.Counters.UnicastSuccesses < 500 {
		t.Fatalf("the run did not exercise the MAC: %d frames, %d retries, %d retry exhaustions, %d acknowledged",
			frames, retries, s.Counters.UnicastFailures, s.Counters.UnicastSuccesses)
	}
}
