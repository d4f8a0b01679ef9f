package experiments

import (
	"slices"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/exor"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/srcr"
	"repro/internal/telemetry"
)

// The run engine: the paper's evaluation procedure (§4.1–4.3) — build the
// mesh, give every node its protocols, start the flows, run until they
// finish, read the destinations' counts — implemented once. The pair
// runners (RunDetailed and everything above it) and the declarative
// scenario executor (internal/scenario) both compile their input to flows
// and timed actions and hand them to Execute.

// Flow is one transfer of a run. Flow i of a run is flow.ID(i+1) on the
// wire and in every per-flow counter.
type Flow struct {
	// Proto carries the flow. Push flows ride Srcr forwarding.
	Proto    Protocol
	Src, Dst graph.NodeID
	// File is the content transferred; a push flow's file supplies its
	// datagram payloads and must split into Push.Packets packets.
	File flow.File
	// Start is when the flow starts, measured from the traffic epoch.
	Start sim.Time
	// Push, when set, makes the flow a datagram source with this traffic
	// model instead of a pull file transfer.
	Push *flow.Traffic
	// Stop halts a push source's generation at this offset from the epoch
	// (0: run until the packet budget is spent).
	Stop sim.Time
}

// Action is a callback the engine fires At after the traffic epoch: a
// topology mutation, a traffic change, an instrumentation probe. Flow
// starts and actions at the same offset fire flows first, then actions in
// list order.
type Action struct {
	At sim.Time
	Do func(x *Execution)
}

// Execution is one simulation driven by the engine.
type Execution struct {
	Sim *sim.Simulator
	// Epoch is when traffic started: the end of any learned-state warmup.
	// Flow and action offsets, and the deadline, are measured from it.
	Epoch sim.Time
	// Oracle is the shared ground-truth routing state, nil when state is
	// learned over the air. An action that mutates the topology invalidates
	// it — its contract is "everyone instantly knows the truth"; learned
	// state finds out the hard way, through probes and LSAs.
	Oracle *flow.Oracle

	cp    *ControlPlane
	opts  Options
	flows []Flow
	// nodes[k] is protocol stack k's instance on every node, nil when no
	// flow uses the stack.
	nodes [len(stacks)][]transferNode
	// startErr[i] is why flow i's last start attempt failed, nil once it
	// has started (see StartErr).
	startErr []error
	// conv is the convergence time so far (see RunInfo.Convergence).
	conv      sim.Time
	deadline  sim.Time
	remaining int
}

// transferNode is what the engine asks of a protocol's per-node instance.
type transferNode interface {
	sim.Protocol
	ExpectFlow(id flow.ID, file flow.File, onDone func())
	StartFlow(id flow.ID, dst graph.NodeID, file flow.File, onDone func()) error
	Result(id flow.ID) flow.Result
}

// stacks is the per-protocol table, in MAC priority order: timer-driven
// srcr/push traffic first (it only offers what its clocks generated), the
// batch protocols last (they are backlogged and would starve everything
// behind them).
var stacks = [...]struct {
	// doneAtDst places the completion callback on the destination's
	// ExpectFlow instead of the source's StartFlow: an ExOR flow is over
	// when its destination reports the file complete, a MORE or Srcr flow
	// when its source does.
	doneAtDst bool
	// build returns the stack's per-node constructor for a run.
	build func(o Options, cp *ControlPlane, autorate bool) func(graph.NodeID) transferNode
}{
	stackSrcr: {build: func(o Options, cp *ControlPlane, autorate bool) func(graph.NodeID) transferNode {
		cfg := o.srcrConfig(autorate)
		return func(id graph.NodeID) transferNode { return srcr.NewNode(cfg, cp.providers[id]) }
	}},
	stackExor: {doneAtDst: true, build: func(o Options, cp *ControlPlane, _ bool) func(graph.NodeID) transferNode {
		cfg := o.exorConfig()
		return func(id graph.NodeID) transferNode { return exor.NewNode(cfg, cp.providers[id]) }
	}},
	stackCore: {build: func(o Options, cp *ControlPlane, _ bool) func(graph.NodeID) transferNode {
		cfg := o.coreConfig()
		return func(id graph.NodeID) transferNode { return core.NewNode(cfg, cp.providers[id]) }
	}},
}

// Indices into stacks.
const (
	stackSrcr = iota
	stackExor
	stackCore
)

// stack returns the index of the protocol stack that carries p.
func (p Protocol) stack() int {
	switch p {
	case MORE:
		return stackCore
	case ExOR:
		return stackExor
	case Srcr, SrcrAutorate:
		return stackSrcr
	default:
		panic("experiments: unknown protocol")
	}
}

// Execute builds the simulation — simulator, control plane (oracle or
// learned), one instance of every protocol in play on every node, so any
// node can forward any flow — runs the measurement warmup when learning,
// registers flow starts and then actions at their offsets from the traffic
// epoch, and runs until every flow has finished or failed to start, or
// opts.Deadline has passed. opts.Telemetry, when set, receives every typed
// event. Finish collects the outcome.
func Execute(topo *graph.Topology, opts Options, flows []Flow, actions []Action) *Execution {
	s := sim.New(topo, opts.SimConfig())
	if opts.Telemetry != nil {
		s.Telem = opts.Telemetry
	}
	cp := NewControlPlane(topo, opts)
	x := &Execution{Sim: s, Oracle: cp.oracle, cp: cp, opts: opts, flows: flows,
		startErr: make([]error, len(flows)), remaining: len(flows)}

	var used [len(stacks)]bool
	autorate := false
	for _, f := range flows {
		used[f.Proto.stack()] = true
		autorate = autorate || f.Proto == SrcrAutorate
	}
	for k, st := range stacks {
		if !used[k] {
			continue
		}
		newNode := st.build(opts, cp, autorate)
		x.nodes[k] = make([]transferNode, cp.n)
		for i := range x.nodes[k] {
			x.nodes[k][i] = newNode(graph.NodeID(i))
		}
	}
	for i := 0; i < cp.n; i++ {
		var members []sim.Protocol
		for _, nodes := range x.nodes {
			if nodes != nil {
				members = append(members, nodes[i])
			}
		}
		cp.attach(s, graph.NodeID(i), congest.Combine(members...))
	}

	x.warmup()
	x.Epoch = s.Now()
	x.deadline = x.Epoch + opts.Deadline
	for i := range flows {
		x.schedule(i)
	}
	for _, a := range actions {
		s.After(a.At, func() { a.Do(x) })
	}
	s.RunWhile(x.deadline, x.tracking(func() bool { return x.remaining > 0 }))
	return x
}

// warmup lets the measurement plane flood before flows start, recording
// the convergence time.
func (x *Execution) warmup() {
	if x.cp.agents == nil {
		return
	}
	x.conv = -1
	warmup := x.opts.Warmup
	if warmup == 0 {
		warmup = 30 * sim.Second
	}
	if warmup < 0 {
		return // cold start: flows begin before any flood completes
	}
	track := x.tracking(func() bool { return true })
	x.Sim.RunWhile(warmup, track)
	track()
}

// tracking wraps a run condition with convergence tracking: a cold-started
// learned run converges under load, after flows have begun, so the
// warmup-phase check alone would report -1.
func (x *Execution) tracking(cond func() bool) func() bool {
	if x.cp.agents == nil {
		return cond
	}
	return func() bool {
		if x.conv < 0 && x.cp.converged() {
			x.conv = x.Sim.Now()
		}
		return cond()
	}
}

// schedule wires flow i's destination and registers its start (and, for a
// push flow, its stop).
func (x *Execution) schedule(i int) {
	f := x.flows[i]
	id := flow.ID(i + 1)
	k := f.Proto.stack()
	src, dst := x.nodes[k][f.Src], x.nodes[k][f.Dst]
	markDone := func() { x.remaining-- }
	var atSrc, atDst func()
	if stacks[k].doneAtDst {
		atDst = markDone
	} else {
		atSrc = markDone
	}
	dst.ExpectFlow(id, f.File, atDst)
	try := func() error { return src.StartFlow(id, f.Dst, f.File, atSrc) }
	if f.Push != nil {
		// The stop must hold even when a learned-state start retry succeeds
		// after the stop time has passed (cold starts can wait many seconds
		// for a route): a successful late start is stopped on the spot, so
		// the declared schedule wins either way.
		pusher := x.srcrNode(f.Src)
		stopped := false
		try = func() error {
			err := pusher.StartPushFlow(id, f.Dst, *f.Push, f.File, atSrc)
			if err == nil && stopped {
				pusher.StopPushFlow(id)
			}
			return err
		}
		if f.Stop > 0 {
			x.Sim.After(f.Stop, func() {
				stopped = true
				pusher.StopPushFlow(id)
			})
		}
	}
	x.Sim.After(f.Start, func() { x.start(i, try) })
}

// start launches flow i. Under the oracle a start failure is final (the
// ground truth says the destination is unreachable). Under learned state
// the view may simply not have converged yet — a cold start, or a short
// warmup — so the start is retried each second of simulated time until it
// succeeds or the deadline passes.
func (x *Execution) start(i int, try func() error) {
	x.startErr[i] = try()
	if x.startErr[i] == nil {
		return
	}
	if x.cp.agents == nil || x.Sim.Now()+sim.Second >= x.deadline {
		x.remaining--
		return
	}
	x.Sim.After(sim.Second, func() { x.start(i, try) })
}

// StartErr reports why flow i never started: the error of its last start
// attempt (no route from the source, typically), nil for a flow that
// started or whose start time the run did not reach.
func (x *Execution) StartErr(i int) error { return x.startErr[i] }

// srcrNode returns node id's Srcr instance; push control and the drain
// need the concrete type.
func (x *Execution) srcrNode(id graph.NodeID) *srcr.Node {
	return x.nodes[stackSrcr][id].(*srcr.Node)
}

// Drain keeps a run with push flows going, still bounded by the deadline,
// while traffic already committed to a queue exists. Every flow has met its
// schedule, but a push source's last packets may still sit in
// congestion-layer queues, srcr backlogs, or the MACs — datagrams are
// delivered (or lost) on their own time, and ending the run at the last
// generation tick would bill the steady-state queue depth as loss. Failed
// nodes are excluded: their frozen backlogs will never drain. File transfers
// alone leave nothing to wait for: what forwarders hold is already decoded.
func (x *Execution) Drain() {
	if !slices.ContainsFunc(x.flows, func(f Flow) bool { return f.Push != nil }) {
		return
	}
	inFlight := func() bool {
		for i := 0; i < x.cp.n; i++ {
			node := x.Sim.Node(graph.NodeID(i))
			if node.Failed() {
				continue
			}
			if node.TxQueueActive() {
				return true
			}
			if x.srcrNode(graph.NodeID(i)).Backlog() > 0 {
				return true
			}
		}
		return x.cp.queuedData() > 0
	}
	if x.Sim.Now() < x.deadline && inFlight() {
		x.Sim.RunWhile(x.deadline, x.tracking(inFlight))
	}
}

// SetPushRate retargets push flow i's generation rate from the next tick.
func (x *Execution) SetPushRate(i int, pps float64) {
	x.srcrNode(x.flows[i].Src).SetPushRate(flow.ID(i+1), pps)
}

// PushStats reports push flow i's source side: packets its clock produced,
// packets dropped at the bare local queue (always 0 under a congestion
// layer, whose stats hold the drops), and whether the source ran its full
// generation schedule.
func (x *Execution) PushStats(i int) (generated int, sourceDrops int64, done bool) {
	return x.srcrNode(x.flows[i].Src).PushStats(flow.ID(i + 1))
}

// Finish reads every destination's result, normalizes it, and assembles
// the RunInfo. It ends the execution: the simulation must not run on after
// it, since its MORE relays and sinks have handed their batches back.
func (x *Execution) Finish() RunInfo {
	s := x.Sim
	results := make([]flow.Result, len(x.flows))
	for i, f := range x.flows {
		res := x.nodes[f.Proto.stack()][f.Dst].Result(flow.ID(i + 1))
		if res.End == 0 || (!res.Completed && res.End < s.Now()) {
			// Throughput of an unfinished flow is measured over the whole
			// run, as a stalled flow occupies its slot the whole time.
			res.End = s.Now()
		}
		res.Src, res.Dst = f.Src, f.Dst
		// Per-flow transmission attribution: every data frame (and
		// protocol-level ACK/NACK) carries its flow ID through the MAC, so
		// multi-flow runs report each flow's own cost.
		res.CountTransmissions(&s.Counters, flow.ID(i+1))
		results[i] = res
	}
	info := RunInfo{
		Results:     results,
		Counters:    s.Counters,
		State:       x.opts.State,
		Convergence: x.conv,
		CC:          x.opts.CC.Policy,
		CCStats:     x.cp.ccStats(),
		Fairness:    buildFairness(results, s.Counters),
	}
	info.ProbeTx, info.FloodTx = x.cp.controlTx()
	if h, ok := x.opts.Telemetry.(*telemetry.Hub); ok {
		info.Telemetry = h.Report()
	}
	// Last, with everything read: the MORE nodes hand back the coded packets
	// they still hold (relays that never heard the final ACK), so the next
	// execution in the process reuses them instead of allocating.
	for _, n := range x.nodes[stackCore] {
		n.(*core.Node).Close()
	}
	return info
}
