// Package scenario is the declarative scenario engine: one JSON file
// describes a complete experiment — topology and seed, per-flow traffic
// models (pull file transfers and push CBR/on-off sources), protocol,
// routing-state and congestion-control knobs, and a time-phased schedule of
// link-degradation and node-failure events — and the executor compiles it
// to the flows and timed actions of the run engine every figure driver
// uses (experiments.Execute). What used to live in moresim flag
// combinations and ad-hoc Go drivers becomes a versionable corpus (see the
// repository's scenarios/ directory) whose results are byte-identical
// across runs and pinned by the golden regression suite, so every future
// change diffs its behavior per scenario.
//
// The mixed-workload scenarios are the point: CHOKe-style AQM (Pan,
// Prabhakar & Psounis, INFOCOM'00) is motivated by unresponsive flows
// pressing on responsive ones, and a pull-only repertoire can never apply
// that pressure — the bounded queues backpressure through the MAC instead
// of overflowing. Push sources close the gap, and the schedule closes a
// second one: convergence behavior under mid-run topology change, which
// static flag-driven runs cannot express.
package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"

	"repro/internal/congest"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Spec is a complete declarative scenario.
type Spec struct {
	// Name identifies the scenario (golden results are filed under it).
	Name string `json:"name"`
	// Description says what the scenario exercises.
	Description string `json:"description,omitempty"`
	// Seed drives the simulator, workload contents, and auto-drawn pairs.
	Seed int64 `json:"seed"`
	// DeadlineS bounds simulated traffic time (seconds, measured from the
	// end of any learned-state warmup).
	DeadlineS float64 `json:"deadline_s"`
	// Topology describes the mesh the scenario runs over.
	Topology TopologySpec `json:"topology"`
	// State selects the routing control plane (default oracle).
	State StateSpec `json:"state,omitempty"`
	// CC selects the congestion-control layer (default none).
	CC CCSpec `json:"cc,omitempty"`
	// Batch is K for MORE/ExOR (default 32).
	Batch int `json:"batch,omitempty"`
	// Metric orders MORE/ExOR forwarders: etx (default) or eotx.
	Metric string `json:"metric,omitempty"`
	// PktSize is the packet payload size in bytes (default 1500).
	PktSize int `json:"pkt_size,omitempty"`
	// RepairS arms the protocols' route-repair watchdogs: a source stalled
	// this long (seconds) replans from current routing state instead of
	// spinning on a dead route. 0 (the default) disables repair.
	RepairS float64 `json:"repair_s,omitempty"`
	// Flows is the traffic matrix; at least one flow is required.
	Flows []FlowSpec `json:"flows"`
	// Events is the scenario schedule: topology mutations at fixed times.
	Events []EventSpec `json:"events,omitempty"`
	// Churn generates a deterministic crash/recover schedule on top of
	// Events — the declarative form of "N random fail/recover cycles".
	Churn *ChurnSpec `json:"churn,omitempty"`
}

// TopologySpec selects and parameterizes a topology generator.
type TopologySpec struct {
	// Kind names an entry of topologyKinds.
	Kind string `json:"kind"`
	// Nodes is the node count for chain/geometric.
	Nodes int `json:"nodes,omitempty"`
	// Degree is the target mean neighbor degree for geometric (default 10).
	Degree float64 `json:"degree,omitempty"`
	// Floors is the building floor count for geometric (default 1).
	Floors int `json:"floors,omitempty"`
	// Drop layers a uniform extra drop rate over every link at build time.
	Drop float64 `json:"drop,omitempty"`
	// Seed overrides the spec seed for topology generation when nonzero
	// (geometric only: the other kinds draw nothing).
	Seed int64 `json:"seed,omitempty"`
}

// StateSpec configures the routing-state provider.
type StateSpec struct {
	// Mode is oracle (default) or learned.
	Mode string `json:"mode,omitempty"`
	// WarmupS runs the measurement plane this long before flows start
	// (learned only; 0 means the 30 s default, negative starts flows cold).
	WarmupS float64 `json:"warmup_s,omitempty"`
	// AdvertiseS is the LSA advertise interval in seconds (learned only).
	AdvertiseS float64 `json:"advertise_s,omitempty"`
	// Damp is the triggered-update delta (0 disables damping).
	Damp float64 `json:"damp,omitempty"`
	// DeadIntervalS declares a neighbor dead after this much probe silence
	// (seconds; learned only, 0 keeps the purely window-based estimator).
	DeadIntervalS float64 `json:"dead_interval_s,omitempty"`
	// MaxAgeS expires LSAs not refreshed within this long (seconds; learned
	// only, 0 keeps databases immortal).
	MaxAgeS float64 `json:"max_age_s,omitempty"`
	// ScopeRings enables fisheye-scoped flooding: ascending hop radii.
	// Near rings get every update; the network-wide refresh drops to the
	// summary cadence (learned only; empty floods everything everywhere).
	ScopeRings []int `json:"scope_rings,omitempty"`
	// SummaryIntervalS is the network-wide summary flood period with
	// scope_rings, seconds (0: 8x the advertise interval).
	SummaryIntervalS float64 `json:"summary_interval_s,omitempty"`
	// Piggyback rides pending LSAs on outgoing broadcast data frames
	// instead of dedicated floods (learned only).
	Piggyback bool `json:"piggyback,omitempty"`
}

// CCSpec configures the congestion layer.
type CCSpec struct {
	// Policy names one of congest.Policies (default none).
	Policy string `json:"policy,omitempty"`
	// Queue overrides the transmit-queue bound (0: policy default).
	Queue int `json:"queue,omitempty"`
}

// FlowSpec describes one flow.
type FlowSpec struct {
	// Name identifies the flow in results.
	Name string `json:"name"`
	// Protocol carries the flow: more, exor, srcr, or srcr-auto (Srcr with
	// Onoe autorate; one such flow makes the run's channel rate-dependent)
	// for pull file transfers; push for UDP-like datagrams over Srcr
	// forwarding.
	Protocol string `json:"protocol"`
	// Src and Dst are node IDs. With AutoPair they must be omitted; the
	// executor draws a reachable pair from the seeded RNG instead.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// AutoPair draws src/dst as the next seeded reachable random pair.
	AutoPair bool `json:"auto_pair,omitempty"`
	// StartS is when the flow starts, seconds after the traffic epoch.
	StartS float64 `json:"start_s,omitempty"`
	// StopS, for push flows only, halts generation early (0: run until the
	// packet budget is spent).
	StopS float64 `json:"stop_s,omitempty"`
	// Traffic is the flow's workload model.
	Traffic TrafficSpec `json:"traffic"`
}

// TrafficSpec describes a flow's workload.
type TrafficSpec struct {
	// Model is file (pull transfer), cbr, or onoff (push).
	Model string `json:"model"`
	// Bytes is the file size for the file model.
	Bytes int `json:"bytes,omitempty"`
	// RatePPS is the push generation rate in packets per second.
	RatePPS float64 `json:"rate_pps,omitempty"`
	// Packets is the push packet budget.
	Packets int `json:"packets,omitempty"`
	// OnS and OffS are the onoff burst/silence durations in seconds.
	OnS  float64 `json:"on_s,omitempty"`
	OffS float64 `json:"off_s,omitempty"`
}

// EventSpec is one scheduled topology mutation (or, for set_rate, a
// traffic mutation).
type EventSpec struct {
	// AtS is the event time, seconds after the traffic epoch.
	AtS float64 `json:"at_s"`
	// Action is degrade, fail_node, recover_node, fail_link, restore_link,
	// or set_rate.
	Action string `json:"action"`
	// Drop is the uniform extra drop rate a degrade event layers on.
	Drop float64 `json:"drop,omitempty"`
	// Node is the node a fail_node event kills or a recover_node event
	// revives.
	Node int `json:"node,omitempty"`
	// A and B are the endpoints a fail_link/restore_link event flaps.
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	// Flow names the push cbr flow a set_rate event retargets.
	Flow string `json:"flow,omitempty"`
	// RatePPS is the new generation rate a set_rate event installs.
	RatePPS float64 `json:"rate_pps,omitempty"`
}

// ChurnSpec generates a deterministic crash/recover schedule over a node
// range: Events cycles, each failing a distinct node for DownS seconds at a
// time drawn uniformly from [StartS, EndS). Distinct nodes keep cycles
// non-overlapping by construction; nodes that source or sink a flow are
// excluded from the draw (so churn cannot silently kill a workload), which
// is also why churn and auto_pair flows are mutually exclusive — the draw
// must know every endpoint at validation time.
type ChurnSpec struct {
	// NodeLo and NodeHi bound the candidate node range (inclusive).
	NodeLo int `json:"node_lo"`
	NodeHi int `json:"node_hi"`
	// Events is the number of crash/recover cycles to generate.
	Events int `json:"events"`
	// DownS is how long each churned node stays down (seconds).
	DownS float64 `json:"down_s"`
	// StartS and EndS bound the window crash times are drawn from; every
	// recovery (crash + DownS) must land before the deadline.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// Seed drives the draw (0: the spec seed).
	Seed int64 `json:"seed,omitempty"`
}

// Known spec vocabulary.
const (
	ActionDegrade     = "degrade"
	ActionFailNode    = "fail_node"
	ActionRecoverNode = "recover_node"
	ActionFailLink    = "fail_link"
	ActionRestoreLink = "restore_link"
	ActionSetRate     = "set_rate"
	ProtoPush         = "push"
)

// The spec's closed vocabularies, one ordered table per set. Validate admits
// exactly what a table lists, the "want ..." of every error message is
// printed from it, and Vocabulary hands the same lists to the usage census
// (TestSpecSurfaceIsRun): the admitted set and the checked set are one list.
var (
	topologyKinds = []entry[generator]{
		{"testbed", generator{20, false, func(TopologySpec, int64) *graph.Topology { return experiments.TestbedTopology() }}},
		{"chain", generator{0, false, func(t TopologySpec, _ int64) *graph.Topology { return graph.LossyChain(t.Nodes, 15, 30) }}},
		// src, relay, dst (with the lossy direct link)
		{"diamond", generator{3, false, func(TopologySpec, int64) *graph.Topology { return graph.Diamond() }}},
		// the fixed 4x5 grid moresim exposes
		{"grid", generator{20, false, func(TopologySpec, int64) *graph.Topology { return graph.Grid(4, 5, 14, 30) }}},
		{"geometric", generator{0, true, func(t TopologySpec, seed int64) *graph.Topology {
			gcfg := graph.DefaultGeometric(t.Nodes)
			gcfg.TargetDegree = t.Degree
			gcfg.Floors = t.Floors
			topo, _ := graph.ConnectedGeometric(gcfg, seed)
			return topo
		}}},
	}
	stateModes = []string{"oracle", "learned"}
	metrics    = []entry[routing.OrderMetric]{{"etx", routing.OrderETX}, {"eotx", routing.OrderEOTX}}
	protocols  = []entry[experiments.Protocol]{
		{"more", experiments.MORE},
		{"exor", experiments.ExOR},
		{"srcr", experiments.Srcr},
		{"srcr-auto", experiments.SrcrAutorate},
		{ProtoPush, experiments.Srcr}, // datagrams ride Srcr forwarding
	}
	trafficModels = []string{"file", "cbr", "onoff"}
	actions       = []string{ActionDegrade, ActionFailNode, ActionRecoverNode, ActionFailLink, ActionRestoreLink, ActionSetRate}
)

// entry is one admitted spelling and what it selects in the engine.
type entry[T any] struct {
	name  string
	value T
}

// generator builds one kind of topology. fixed is the node count of a
// fixed-size kind; a sized kind (fixed 0) takes the spec's nodes. seeded
// marks a kind whose build draws from the seed; the others ignore it.
type generator struct {
	fixed  int
	seeded bool
	build  func(t TopologySpec, seed int64) *graph.Topology
}

// names lists a table's spellings in order.
func names[T any](table []entry[T]) []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// lookup returns what name selects, and whether the table admits it.
func lookup[T any](table []entry[T], name string) (T, bool) {
	for _, e := range table {
		if e.name == name {
			return e.value, true
		}
	}
	var zero T
	return zero, false
}

// Vocabulary returns every closed set of values the loader admits, keyed by
// the spec path of the key that takes them ("flows.traffic.model"). The
// lists are the caller's own.
func Vocabulary() map[string][]string {
	var policies []string
	for _, p := range congest.Policies() {
		policies = append(policies, p.String())
	}
	return map[string][]string{
		"topology.kind":       names(topologyKinds),
		"state.mode":          slices.Clone(stateModes),
		"cc.policy":           policies,
		"metric":              names(metrics),
		"flows.protocol":      names(protocols),
		"flows.traffic.model": slices.Clone(trafficModels),
		"events.action":       slices.Clone(actions),
	}
}

// unknown words the rejection of a value outside its vocabulary; it names
// the admitted set.
func unknown(what, got string, admitted []string) string {
	return fmt.Sprintf("unknown %s %q (want %s)", what, got, strings.Join(admitted, ", "))
}

// normalize fills defaulted fields in place so an encoded spec is explicit
// about what it runs.
func (s *Spec) normalize() {
	if s.Batch == 0 {
		s.Batch = 32
	}
	if s.PktSize == 0 {
		s.PktSize = 1500
	}
	if s.Topology.Kind == "geometric" {
		if s.Topology.Degree == 0 {
			s.Topology.Degree = 10
		}
		if s.Topology.Floors == 0 {
			s.Topology.Floors = 1
		}
	}
	if s.State.Mode == "" {
		s.State.Mode = "oracle"
	}
	if s.CC.Policy == "" {
		s.CC.Policy = "none"
	}
}

// NodeCount returns the node count the topology will have, or -1 when the
// kind is unknown.
func (t TopologySpec) NodeCount() int {
	gen, ok := lookup(topologyKinds, t.Kind)
	switch {
	case !ok:
		return -1
	case gen.fixed > 0:
		return gen.fixed
	}
	return t.Nodes
}

// Build constructs the topology (applying build-time degradation).
// defaultSeed is used when the topology declares no seed of its own.
func (t TopologySpec) Build(defaultSeed int64) (*graph.Topology, error) {
	gen, ok := lookup(topologyKinds, t.Kind)
	if !ok {
		return nil, fmt.Errorf("scenario: %s", unknown("topology kind", t.Kind, names(topologyKinds)))
	}
	seed := t.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	topo := gen.build(t, seed)
	if t.Drop > 0 {
		topo.Degrade(t.Drop)
	}
	return topo, nil
}

// Validate checks the spec is well formed and rejects the degenerate
// configurations the executor cannot run sensibly. Error messages name the
// offending flow or event.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.DeadlineS <= 0 {
		return fmt.Errorf("scenario %s: deadline_s must be > 0 (got %v)", s.Name, s.DeadlineS)
	}
	gen, ok := lookup(topologyKinds, s.Topology.Kind)
	if !ok {
		return fmt.Errorf("scenario %s: %s", s.Name, unknown("topology kind", s.Topology.Kind, names(topologyKinds)))
	}
	n := s.Topology.NodeCount()
	if gen.fixed == 0 {
		if n < 2 {
			return fmt.Errorf("scenario %s: topology %s needs nodes >= 2 (got %d)", s.Name, s.Topology.Kind, n)
		}
	} else if s.Topology.Nodes != 0 {
		// Silently running the fixed size would betray a spec author who
		// believes they scaled the scenario.
		return fmt.Errorf("scenario %s: topology %s has a fixed size of %d nodes; nodes does not apply",
			s.Name, s.Topology.Kind, n)
	}
	if s.Topology.Kind != "geometric" && (s.Topology.Degree != 0 || s.Topology.Floors != 0) {
		return fmt.Errorf("scenario %s: degree/floors apply to geometric topologies only", s.Name)
	}
	if !gen.seeded && s.Topology.Seed != 0 {
		// Build would ignore it; an author who set it believes it drew a
		// different network.
		return fmt.Errorf("scenario %s: topology %s draws nothing from a seed; topology.seed does not apply",
			s.Name, s.Topology.Kind)
	}
	if s.Topology.Drop < 0 || s.Topology.Drop >= 1 {
		return fmt.Errorf("scenario %s: topology drop %v outside [0,1)", s.Name, s.Topology.Drop)
	}
	if !slices.Contains(stateModes, s.State.Mode) {
		return fmt.Errorf("scenario %s: %s", s.Name, unknown("state mode", s.State.Mode, stateModes))
	}
	if s.State.Mode != "learned" && !reflect.DeepEqual(s.State, StateSpec{Mode: s.State.Mode}) {
		// An oracle run has no measurement plane to tune; dropping the knobs
		// silently would betray a spec author who believes they took effect.
		return fmt.Errorf("scenario %s: state knobs apply to mode learned only", s.Name)
	}
	if s.State.AdvertiseS < 0 || s.State.Damp < 0 ||
		s.State.DeadIntervalS < 0 || s.State.MaxAgeS < 0 || s.State.SummaryIntervalS < 0 {
		return fmt.Errorf("scenario %s: state knobs must be non-negative", s.Name)
	}
	for i, r := range s.State.ScopeRings {
		if r < 1 || r > 255 || (i > 0 && r <= s.State.ScopeRings[i-1]) {
			return fmt.Errorf("scenario %s: scope_rings must be ascending hop radii in 1..255 (got %v)",
				s.Name, s.State.ScopeRings)
		}
	}
	if s.RepairS < 0 {
		return fmt.Errorf("scenario %s: repair_s must be >= 0 (got %v)", s.Name, s.RepairS)
	}
	if _, err := congest.ParsePolicy(s.CC.Policy); err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if s.CC.Queue < 0 {
		return fmt.Errorf("scenario %s: cc queue must be >= 0 (got %d)", s.Name, s.CC.Queue)
	}
	if s.Batch < 2 {
		return fmt.Errorf("scenario %s: batch must be >= 2 (got %d)", s.Name, s.Batch)
	}
	if _, ok := lookup(metrics, s.Metric); !ok && s.Metric != "" {
		return fmt.Errorf("scenario %s: %s", s.Name, unknown("metric", s.Metric, names(metrics)))
	}
	if s.PktSize < 64 {
		return fmt.Errorf("scenario %s: pkt_size must be >= 64 (got %d)", s.Name, s.PktSize)
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("scenario %s: no flows", s.Name)
	}
	flowNames := map[string]bool{}
	for i := range s.Flows {
		if err := s.validateFlow(&s.Flows[i], n, flowNames); err != nil {
			return err
		}
	}
	if err := s.validateChurn(n); err != nil {
		return err
	}
	return s.validateEvents(n)
}

// validateChurn checks the churn block's parameters; the expanded schedule
// itself is re-checked by validateEvents, which sees declared and generated
// events merged in firing order.
func (s *Spec) validateChurn(n int) error {
	c := s.Churn
	if c == nil {
		return nil
	}
	if c.NodeLo < 0 || c.NodeHi >= n || c.NodeLo > c.NodeHi {
		return fmt.Errorf("scenario %s: churn node range [%d, %d] outside topology of %d nodes",
			s.Name, c.NodeLo, c.NodeHi, n)
	}
	if c.Events < 1 {
		return fmt.Errorf("scenario %s: churn needs events >= 1 (got %d)", s.Name, c.Events)
	}
	if c.DownS <= 0 {
		return fmt.Errorf("scenario %s: churn needs down_s > 0 (got %v)", s.Name, c.DownS)
	}
	if c.StartS < 0 || c.EndS <= c.StartS {
		return fmt.Errorf("scenario %s: churn window [%v, %v) is empty or negative", s.Name, c.StartS, c.EndS)
	}
	if c.EndS+c.DownS >= s.DeadlineS {
		return fmt.Errorf("scenario %s: churn recoveries (end_s %v + down_s %v) must land before the deadline %v",
			s.Name, c.EndS, c.DownS, s.DeadlineS)
	}
	used := map[int]bool{}
	for _, f := range s.Flows {
		if f.AutoPair {
			return fmt.Errorf("scenario %s: churn and auto_pair flows are mutually exclusive (the churn draw must know every flow endpoint)", s.Name)
		}
		used[f.Src] = true
		used[f.Dst] = true
	}
	candidates := 0
	for id := c.NodeLo; id <= c.NodeHi; id++ {
		if !used[id] {
			candidates++
		}
	}
	if c.Events > candidates {
		return fmt.Errorf("scenario %s: churn wants %d events but only %d candidate nodes are free of flow endpoints",
			s.Name, c.Events, candidates)
	}
	return nil
}

// churnEvents deterministically expands the churn block into fail/recover
// event pairs. Each cycle hits a distinct node, so cycles never overlap and
// the fail->recover alternation holds by construction.
func (s *Spec) churnEvents() []EventSpec {
	c := s.Churn
	if c == nil {
		return nil
	}
	seed := c.Seed
	if seed == 0 {
		seed = s.Seed
	}
	rng := rand.New(rand.NewSource(seed))
	used := map[int]bool{}
	for _, f := range s.Flows {
		used[f.Src] = true
		used[f.Dst] = true
	}
	var candidates []int
	for id := c.NodeLo; id <= c.NodeHi; id++ {
		if !used[id] {
			candidates = append(candidates, id)
		}
	}
	perm := rng.Perm(len(candidates))
	evs := make([]EventSpec, 0, 2*c.Events)
	for i := 0; i < c.Events && i < len(candidates); i++ {
		node := candidates[perm[i]]
		at := c.StartS + rng.Float64()*(c.EndS-c.StartS)
		evs = append(evs,
			EventSpec{AtS: at, Action: ActionFailNode, Node: node},
			EventSpec{AtS: at + c.DownS, Action: ActionRecoverNode, Node: node})
	}
	return evs
}

func (s *Spec) validateFlow(f *FlowSpec, n int, flowNames map[string]bool) error {
	where := func(format string, args ...interface{}) error {
		return fmt.Errorf("scenario %s: flow %q: %s", s.Name, f.Name, fmt.Sprintf(format, args...))
	}
	if f.Name == "" {
		return fmt.Errorf("scenario %s: flow with no name", s.Name)
	}
	if flowNames[f.Name] {
		return where("duplicate flow name")
	}
	flowNames[f.Name] = true
	if _, ok := lookup(protocols, f.Protocol); !ok {
		return where("%s", unknown("protocol", f.Protocol, names(protocols)))
	}
	if f.AutoPair {
		if f.Src != 0 || f.Dst != 0 {
			return where("auto_pair and explicit src/dst are mutually exclusive")
		}
	} else {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return where("src/dst %d->%d outside topology of %d nodes", f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			return where("src == dst (%d)", f.Src)
		}
	}
	if f.StartS < 0 {
		return where("start_s must be >= 0 (got %v)", f.StartS)
	}
	if f.StartS >= s.DeadlineS {
		return where("start_s %v at or past the deadline %v", f.StartS, s.DeadlineS)
	}
	isPush := f.Protocol == ProtoPush
	if !slices.Contains(trafficModels, f.Traffic.Model) {
		return where("%s", unknown("traffic model", f.Traffic.Model, trafficModels))
	}
	switch f.Traffic.Model {
	case "file":
		if isPush {
			return where("push flows need a cbr or onoff traffic model, not file")
		}
		if f.Traffic.Bytes <= 0 {
			return where("file traffic needs bytes > 0 (got %d)", f.Traffic.Bytes)
		}
		if f.Traffic.RatePPS != 0 || f.Traffic.Packets != 0 || f.Traffic.OnS != 0 || f.Traffic.OffS != 0 {
			return where("file traffic takes only bytes")
		}
	case "cbr", "onoff":
		if !isPush {
			return where("%s traffic needs protocol push, not %s", f.Traffic.Model, f.Protocol)
		}
		if tr, err := f.traffic(); err != nil {
			return where("%v", err)
		} else if tr.Validate() != nil {
			return where("%v", tr.Validate())
		}
		if f.Traffic.Bytes != 0 {
			return where("push traffic sizes packets with pkt_size, not bytes")
		}
		if f.Traffic.Model == "cbr" && (f.Traffic.OnS != 0 || f.Traffic.OffS != 0) {
			return where("cbr traffic takes no on_s/off_s (did you mean model onoff?)")
		}
	}
	if f.StopS != 0 {
		if !isPush {
			return where("stop_s applies to push flows only")
		}
		if f.StopS <= f.StartS {
			return where("stop_s %v does not follow start_s %v (overlapping schedule)", f.StopS, f.StartS)
		}
		if f.StopS > s.DeadlineS {
			return where("stop_s %v past the deadline %v", f.StopS, s.DeadlineS)
		}
	}
	return nil
}

// validateEvents walks the full schedule — declared events plus the
// expanded churn block — in firing order, so fail/recover and
// fail/restore alternation is checked against the state each event
// actually finds, not the order events were written in.
func (s *Spec) validateEvents(n int) error {
	pushCBR := map[string]bool{}
	for _, f := range s.Flows {
		if f.Protocol == ProtoPush && f.Traffic.Model == "cbr" {
			pushCBR[f.Name] = true
		}
	}
	failed := map[int]bool{}
	linkDown := map[[2]int]bool{}
	type evKey struct {
		at     float64
		action string
		node   int
		a, b   int
		flow   string
	}
	seen := map[evKey]bool{}
	for i, e := range s.allEvents() {
		where := func(format string, args ...interface{}) error {
			return fmt.Errorf("scenario %s: event %d (%s at %vs): %s", s.Name, i, e.Action, e.AtS, fmt.Sprintf(format, args...))
		}
		if e.AtS < 0 || e.AtS >= s.DeadlineS {
			return where("at_s outside [0, deadline)")
		}
		nodeOnly := func(verb string) error {
			if e.Node < 0 || e.Node >= n {
				return where("node %d outside topology of %d nodes", e.Node, n)
			}
			if e.Drop != 0 || e.A != 0 || e.B != 0 || e.Flow != "" || e.RatePPS != 0 {
				return where("%s takes only a node", verb)
			}
			return nil
		}
		linkOnly := func(verb string) error {
			if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
				return where("link %d-%d outside topology of %d nodes", e.A, e.B, n)
			}
			if e.A == e.B {
				return where("link endpoints must differ (got %d)", e.A)
			}
			if e.Drop != 0 || e.Node != 0 || e.Flow != "" || e.RatePPS != 0 {
				return where("%s takes only link endpoints a and b", verb)
			}
			return nil
		}
		linkKey := func() [2]int {
			if e.A < e.B {
				return [2]int{e.A, e.B}
			}
			return [2]int{e.B, e.A}
		}
		if !slices.Contains(actions, e.Action) {
			return where("%s", unknown("action", e.Action, actions))
		}
		switch e.Action {
		case ActionDegrade:
			if e.Drop <= 0 || e.Drop >= 1 {
				return where("degrade needs drop in (0,1), got %v", e.Drop)
			}
			if e.Node != 0 || e.A != 0 || e.B != 0 || e.Flow != "" || e.RatePPS != 0 {
				return where("degrade takes only drop")
			}
		case ActionFailNode:
			if err := nodeOnly("fail_node"); err != nil {
				return err
			}
			if failed[e.Node] {
				return where("node %d already failed by an earlier event (overlapping schedule)", e.Node)
			}
			failed[e.Node] = true
		case ActionRecoverNode:
			if err := nodeOnly("recover_node"); err != nil {
				return err
			}
			if !failed[e.Node] {
				return where("node %d is not down at %vs (recover must follow a fail)", e.Node, e.AtS)
			}
			delete(failed, e.Node)
		case ActionFailLink:
			if err := linkOnly("fail_link"); err != nil {
				return err
			}
			if linkDown[linkKey()] {
				return where("link %d-%d already failed by an earlier event (overlapping schedule)", e.A, e.B)
			}
			linkDown[linkKey()] = true
		case ActionRestoreLink:
			if err := linkOnly("restore_link"); err != nil {
				return err
			}
			if !linkDown[linkKey()] {
				return where("link %d-%d is not down at %vs (restore must follow a fail)", e.A, e.B, e.AtS)
			}
			delete(linkDown, linkKey())
		case ActionSetRate:
			if !pushCBR[e.Flow] {
				return where("set_rate targets flow %q, which is not a push cbr flow", e.Flow)
			}
			if e.RatePPS <= 0 {
				return where("set_rate needs rate_pps > 0, got %v", e.RatePPS)
			}
			if e.Drop != 0 || e.Node != 0 || e.A != 0 || e.B != 0 {
				return where("set_rate takes only flow and rate_pps")
			}
		}
		key := evKey{e.AtS, e.Action, e.Node, e.A, e.B, e.Flow}
		if seen[key] {
			return where("duplicate event (overlapping schedule)")
		}
		seen[key] = true
	}
	return nil
}

// traffic converts the flow's traffic spec to the flow-package model; its
// Validate refuses the file model, which is not a push source's.
func (f *FlowSpec) traffic() (flow.Traffic, error) {
	model, err := flow.ParseTrafficModel(f.Traffic.Model)
	return flow.Traffic{
		Model:   model,
		RatePPS: f.Traffic.RatePPS,
		Packets: f.Traffic.Packets,
		On:      secs(f.Traffic.OnS),
		Off:     secs(f.Traffic.OffS),
	}, err
}

// Options compiles the spec's run-wide knobs into experiments.Options, the
// same parameter block every figure driver uses.
func (s *Spec) Options() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Seed = s.Seed
	opts.BatchSize = s.Batch
	opts.PktSize = s.PktSize
	opts.Deadline = secs(s.DeadlineS)
	if order, ok := lookup(metrics, s.Metric); ok {
		opts.Metric = order
	}
	for _, f := range s.Flows {
		// Autorate picks among bit-rates, so the channel must price them.
		opts.RateDependentChannel = opts.RateDependentChannel || f.Protocol == "srcr-auto"
	}
	if s.State.Mode == "learned" {
		opts.State = experiments.StateLearned
		lcfg := linkstate.DefaultConfig()
		if s.State.AdvertiseS > 0 {
			lcfg.AdvertiseInterval = secs(s.State.AdvertiseS)
		}
		lcfg.TriggerDelta = s.State.Damp
		if s.State.DeadIntervalS > 0 {
			lcfg.Probe.DeadInterval = secs(s.State.DeadIntervalS)
		}
		if s.State.MaxAgeS > 0 {
			lcfg.MaxAge = secs(s.State.MaxAgeS)
		}
		lcfg.ScopeRings = s.State.ScopeRings
		lcfg.SummaryInterval = secs(s.State.SummaryIntervalS)
		lcfg.Piggyback = s.State.Piggyback
		opts.LinkState = lcfg
		switch {
		case s.State.WarmupS > 0:
			opts.Warmup = secs(s.State.WarmupS)
		case s.State.WarmupS < 0:
			opts.Warmup = -1
		}
	}
	policy, _ := congest.ParsePolicy(s.CC.Policy) // validated on load
	opts.CC = congest.DefaultConfig(policy)
	opts.CC.QueueLen = s.CC.Queue
	opts.Repair = secs(s.RepairS)
	return opts
}

// secs converts float seconds to simulated time.
func secs(v float64) sim.Time { return sim.Time(v * float64(sim.Second)) }

// allEvents returns the full schedule — declared events plus the expanded
// churn block — in firing order (stable over the written order for ties, so
// equal-time declared events run in the order they were written, ahead of
// any generated ones).
func (s *Spec) allEvents() []EventSpec {
	evs := append(append([]EventSpec(nil), s.Events...), s.churnEvents()...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].AtS < evs[b].AtS })
	return evs
}
