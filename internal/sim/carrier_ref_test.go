package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// carrierRef is the carrier sense the listening set replaced, kept as the
// reference: the sense sets as sorted slices built for every node at
// construction, and a count for every node — contending or not, alive or not
// — that every transmission in range moves twice. Its edge rules are the old
// ones: the first sensed transmission cancels a DIFS wait and freezes a
// backoff, crediting whole elapsed slots; the last one to end starts a DIFS
// wait at a contending MAC, in ascending node order; a MAC that starts to
// contend waits out a DIFS only when its count is zero.
type carrierRef struct {
	sense [][]graph.NodeID
	busy  []int32
}

func newCarrierRef(topo *graph.Topology, cfg Config) *carrierRef {
	n := topo.N()
	r := &carrierRef{sense: make([][]graph.NodeID, n), busy: make([]int32, n)}
	var spatial *graph.SpatialIndex
	if cfg.SenseRange > 0 {
		spatial = graph.NewSpatialIndex(topo.Pos, cfg.SenseRange)
	}
	for i := range r.sense {
		id := graph.NodeID(i)
		set := []graph.NodeID{id}
		for _, e := range topo.OutEdges(id) {
			if e.P > SenseThreshold {
				set = append(set, e.Node)
			}
		}
		if spatial != nil {
			set = append(set, spatial.Near(id, cfg.SenseRange)...)
		}
		slices.Sort(set)
		r.sense[i] = slices.Compact(set)
	}
	return r
}

// macView is what the carrier rules read and write of one MAC.
type macView struct {
	state          macState
	difsAt         Time
	difsSeq        uint64 // 0: no DIFS wait pending
	backoffSlots   int
	backoffPending bool
	backoffStart   Time
}

func viewMACs(s *Simulator) []macView {
	v := make([]macView, len(s.macs))
	for i := range s.macs {
		m := &s.macs[i]
		v[i] = macView{m.state, m.difsAt, m.difsSeq, m.backoffSlots, m.backoffTimer.pending(), m.backoffStart}
		if m.difsSeq == 0 {
			v[i].difsAt = 0
		}
	}
	return v
}

// onAir lists the transmitters of s.active. A node has one frame on the air
// at a time, so the transmitter names the transmission (the objects are
// recycled and do not).
func onAir(s *Simulator) []graph.NodeID {
	ids := make([]graph.NodeID, len(s.active))
	for i, tx := range s.active {
		ids[i] = tx.from.id
	}
	slices.Sort(ids)
	return ids
}

// step applies the reference rules to one event — pre and post are the MACs
// before and after it, seq the sequence counter before it — and returns what
// the MACs must look like after it. What an event does to the MAC whose own
// timer fired or whose own frame ended is not carrier sense; those fields are
// taken from post (the want[i] = post[i] lines) except where the old code
// consulted the count.
func (r *carrierRef) step(t *testing.T, s *Simulator, pre, post []macView, seq uint64, airBefore, airAfter []graph.NodeID) []macView {
	t.Helper()
	want := slices.Clone(pre)
	now := s.Now()
	var started, ended []graph.NodeID
	for _, id := range airAfter {
		if !slices.Contains(airBefore, id) {
			started = append(started, id)
		}
	}
	for _, id := range airBefore {
		if !slices.Contains(airAfter, id) {
			ended = append(ended, id)
		}
	}
	if len(started)+len(ended) > 1 {
		t.Fatalf("at %v one event started %v and ended %v", now, started, ended)
	}
	for _, from := range started {
		for _, id := range r.sense[from] {
			if r.busy[id]++; r.busy[id] != 1 {
				continue
			}
			w := &want[id]
			w.difsAt, w.difsSeq = 0, 0
			if w.backoffPending {
				w.backoffSlots -= min(int((now-w.backoffStart)/SlotTime), w.backoffSlots)
				w.backoffPending = false
			}
		}
		want[from].state = post[from].state // contending -> transmitting; a MAC ACK leaves it alone
	}
	for _, from := range ended {
		for _, id := range r.sense[from] {
			if r.busy[id]--; r.busy[id] == 0 && pre[id].state == macContending {
				seq++
				want[id].difsAt, want[id].difsSeq = now+DIFS, seq
			}
		}
	}
	for i := range want {
		w, p := &want[i], post[i]
		switch {
		case p.state == macContending && pre[i].state != macContending:
			// Started to contend: a fresh backoff draw, and a DIFS wait under
			// a key drawn after the walk's, if and only if the air is clear.
			*w = p
			if clear := r.busy[i] == 0; clear != (p.difsSeq != 0) {
				t.Fatalf("at %v node %d started to contend sensing %d transmissions, DIFS pending=%v", now, i, r.busy[i], p.difsSeq != 0)
			}
			if p.difsSeq != 0 && (p.difsAt != now+DIFS || p.difsSeq <= seq || p.difsSeq > s.seq) {
				t.Fatalf("at %v node %d armed DIFS (%v, %d), want (%v, %d..%d]", now, i, p.difsAt, p.difsSeq, now+DIFS, seq, s.seq)
			}
		case p.state != pre[i].state:
			*w = p // went idle, transmitting or waiting for an ACK: its own doing
		case len(started)+len(ended) == 0 && pre[i].difsSeq != 0 && pre[i].difsAt == now && p.backoffPending && !pre[i].backoffPending:
			// Its DIFS ran out and the backoff began. The old difsDone asked
			// the count first.
			if r.busy[i] != 0 {
				t.Fatalf("at %v node %d began its backoff sensing %d transmissions", now, i, r.busy[i])
			}
			*w = p
		}
	}
	return want
}

// talker sends bursts of frames, some unicast, with pauses in which its MAC
// goes idle: MACs enter and leave the listening set all the time, frames in
// the air, and a contending MAC acknowledges unicasts in between.
type talker struct {
	node  *Node
	rng   *rand.Rand
	peers int
	queue []*Frame
}

func (p *talker) Init(n *Node) { p.node = n; p.burst() }
func (p *talker) burst() {
	for k := 1 + p.rng.Intn(3); k > 0; k-- {
		f := &Frame{To: graph.Broadcast, Bytes: 60 + p.rng.Intn(400)}
		if p.rng.Intn(3) == 0 {
			f.To = graph.NodeID(p.rng.Intn(p.peers))
		}
		if f.To != p.node.ID() {
			p.queue = append(p.queue, f)
		}
	}
	p.node.Wake()
	p.node.After(Time(p.rng.Intn(4000))*Microsecond, p.burst)
}
func (p *talker) Receive(*Frame)    {}
func (p *talker) Sent(*Frame, bool) {}
func (p *talker) Pull() *Frame {
	if len(p.queue) == 0 {
		return nil
	}
	f := p.queue[0]
	p.queue = p.queue[1:]
	return f
}

// TestCarrierMatchesEagerReference runs the simulator one event at a time
// beside the eager per-node counter and requires, after every event, every
// MAC's DIFS key and remaining backoff to be what the old rules make of the
// state before it.
func TestCarrierMatchesEagerReference(t *testing.T) {
	geo, _ := graph.ConnectedGeometric(graph.DefaultGeometric(40), 7)
	for _, tc := range []struct {
		name       string
		topo       *graph.Topology
		senseRange float64
		events     int
	}{
		{"lossy-chain", graph.LossyChain(8, 15, 30), 40, 60_000},
		{"geometric-40", geo, 1.5 * graph.MidRange, 60_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SenseRange = tc.senseRange
			s := New(tc.topo, cfg)
			ref := newCarrierRef(tc.topo, cfg)
			for i := 0; i < tc.topo.N(); i++ {
				s.Attach(graph.NodeID(i), &talker{rng: rand.New(rand.NewSource(int64(100 + i))), peers: tc.topo.N()})
			}
			var entered, frozen, walkArmed, ackWhileContending int
			pre, air, seq := viewMACs(s), onAir(s), s.seq
			events := 0
			s.RunWhile(60*Second, func() bool {
				post, airAfter := viewMACs(s), onAir(s)
				want := ref.step(t, s, pre, post, seq, air, airAfter)
				for i := range want {
					if want[i] != post[i] {
						t.Fatalf("event %d at %v, node %d: MAC is %+v, the eager reference makes it %+v (before: %+v)",
							events, s.Now(), i, post[i], want[i], pre[i])
					}
					switch {
					case post[i].state == macContending && pre[i].state != macContending:
						entered++
					case pre[i].backoffPending && !post[i].backoffPending && post[i].state == macContending:
						frozen++
					case post[i].difsSeq != 0 && pre[i].difsSeq != post[i].difsSeq:
						walkArmed++
					}
				}
				for _, tx := range s.active {
					if tx.frame.isMACAck && tx.start == s.Now() && tx.from.mac.state == macContending {
						ackWhileContending++
					}
				}
				pre, air, seq = post, airAfter, s.seq
				events++
				return events < tc.events
			})
			if entered < 1000 || frozen < 1000 || walkArmed < 1000 || ackWhileContending < 10 {
				t.Fatalf("%d events: %d MACs started to contend, %d backoffs frozen, %d DIFS waits armed by a clearing medium, %d ACKs sent by a contending MAC",
					events, entered, frozen, walkArmed, ackWhileContending)
			}
			t.Logf("%d events: %d entries, %d freezes, %d walk-armed DIFS waits, %d ACKs from contending MACs", events, entered, frozen, walkArmed, ackWhileContending)
		})
	}
}
