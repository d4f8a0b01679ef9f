package scenario

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Run executes a validated spec and returns the sealed result. The spec is
// compiled to the flows and timed actions of the run engine the figure
// drivers use (experiments.Execute): flows start at their offsets, push
// sources stop at theirs, and the event schedule mutates the live topology
// (invalidating the oracle, so even perfect-knowledge runs must react).
func Run(spec *Spec) (*Result, error) {
	return RunWith(spec, nil)
}

// RunWith executes a spec with an optional telemetry hub installed on the
// simulator. With hub nil it is exactly Run. With a hub, typed events flow
// through it for metrics, Chrome trace capture, and stall dumps, and the
// sealed result carries the metrics Report — telemetry never perturbs the
// simulation, so everything except that extra block (and hence the digest)
// is byte-identical to the uninstrumented run.
func RunWith(spec *Spec, hub *telemetry.Hub) (*Result, error) {
	topo, err := spec.Topology.Build(spec.Seed)
	if err != nil {
		return nil, err
	}
	opts := spec.Options()
	if hub != nil {
		opts.Telemetry = hub
	}
	flows, err := spec.flows(topo)
	if err != nil {
		return nil, err
	}

	x := experiments.Execute(topo, opts, flows, spec.actions(topo))
	x.Drain()
	info := x.Finish()

	res := &Result{
		Scenario:    spec.Name,
		Nodes:       topo.N(),
		Seed:        spec.Seed,
		State:       info.State,
		CC:          info.CC,
		Epoch:       x.Epoch,
		End:         x.Sim.Now(),
		Convergence: info.Convergence,
		ProbeTx:     info.ProbeTx,
		FloodTx:     info.FloodTx,
		Counters:    info.Counters,
		CCStats:     info.CCStats,
		Fairness:    info.Fairness,
		Telemetry:   info.Telemetry,
	}
	for i, f := range spec.Flows {
		out := FlowOutcome{Name: f.Name, Protocol: f.Protocol, Result: info.Results[i],
			Done: info.Results[i].Completed, StartErr: x.StartErr(i)}
		if f.Protocol == ProtoPush {
			out.Traffic = flows[i].Push.Model
			out.Generated, out.SourceDrops, out.Done = x.PushStats(i)
		}
		res.Flows = append(res.Flows, out)
	}
	if err := res.seal(); err != nil {
		return nil, err
	}
	return res, nil
}

// flows compiles the traffic matrix. Auto-drawn pairs are resolved on the
// built (possibly pre-degraded) topology, in flow order, from the scenario
// seed.
func (s *Spec) flows(topo *graph.Topology) ([]experiments.Flow, error) {
	nAuto := 0
	for _, f := range s.Flows {
		if f.AutoPair {
			nAuto++
		}
	}
	autoPairs := experiments.RandomPairs(topo, nAuto, s.Seed)
	if len(autoPairs) < nAuto {
		return nil, fmt.Errorf("scenario %s: only %d of %d auto pairs reachable on this topology",
			s.Name, len(autoPairs), nAuto)
	}
	flows := make([]experiments.Flow, len(s.Flows))
	for i := range s.Flows {
		f := &s.Flows[i]
		proto, _ := lookup(protocols, f.Protocol) // validated on load
		out := experiments.Flow{
			Proto: proto,
			Src:   graph.NodeID(f.Src),
			Dst:   graph.NodeID(f.Dst),
			Start: secs(f.StartS),
			Stop:  secs(f.StopS),
		}
		if f.AutoPair {
			out.Src, out.Dst = autoPairs[0].Src, autoPairs[0].Dst
			autoPairs = autoPairs[1:]
		}
		bytes := f.Traffic.Bytes
		if f.Protocol == ProtoPush {
			tr, err := f.traffic()
			if err != nil {
				return nil, err
			}
			out.Push = &tr
			bytes = tr.Packets * s.PktSize
		}
		out.File = flow.NewFile(bytes, s.PktSize, s.Seed+int64(i))
		flows[i] = out
	}
	return flows, nil
}

// actions compiles the event schedule (declared events plus any expanded
// churn block). The simulator reads delivery probabilities live, so the
// channel changes instantly; carrier-sense sets keep their pre-event reach
// (energy detection outlives decodability). The oracle is invalidated after
// every topology mutation so plans rebuild. set_rate mutates traffic, not
// topology, so it leaves the oracle alone.
func (s *Spec) actions(topo *graph.Topology) []experiments.Action {
	flowIndex := make(map[string]int, len(s.Flows))
	for i, f := range s.Flows {
		flowIndex[f.Name] = i
	}
	var acts []experiments.Action
	for _, e := range s.allEvents() {
		acts = append(acts, experiments.Action{At: secs(e.AtS), Do: func(x *experiments.Execution) {
			switch e.Action {
			case ActionDegrade:
				topo.Degrade(e.Drop)
			case ActionFailNode:
				topo.Isolate(graph.NodeID(e.Node))
				x.Sim.FailNode(graph.NodeID(e.Node))
			case ActionRecoverNode:
				topo.Restore(graph.NodeID(e.Node))
				x.Sim.RecoverNode(graph.NodeID(e.Node))
			case ActionFailLink:
				topo.FailLink(graph.NodeID(e.A), graph.NodeID(e.B))
			case ActionRestoreLink:
				topo.RestoreLink(graph.NodeID(e.A), graph.NodeID(e.B))
			case ActionSetRate:
				x.SetPushRate(flowIndex[e.Flow], e.RatePPS)
				return
			}
			if x.Oracle != nil {
				x.Oracle.Invalidate()
			}
		}})
	}
	return acts
}
