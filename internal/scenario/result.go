package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/congest"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// FlowOutcome is one flow's end of run.
type FlowOutcome struct {
	Name     string
	Protocol string
	Traffic  flow.TrafficModel
	// Result is the destination-side transfer outcome (delivery counts,
	// timing, verification, per-flow transmissions).
	Result flow.Result
	// Generated and SourceDrops report the push source's side: packets its
	// clock produced, and packets dropped at the bare local queue (always 0
	// under a congestion layer, whose CCStats hold the drops). Zero for
	// pull flows.
	Generated   int
	SourceDrops int64
	// Done is the flow's scheduling verdict: a pull transfer completed, or
	// a push source that ran its full generation schedule.
	Done bool
	// StartErr is why the flow never started (its source had no route when
	// the start fired, and the oracle's word is final), nil otherwise. It is
	// for the caller's diagnostics: the document, and so the digest, leave
	// it out.
	StartErr error `json:"-"`
}

// Result is a scenario run's complete outcome. Everything in it derives
// from the deterministic simulation — no wall-clock, no map ordering — so
// Encode produces byte-identical output for identical specs, which is what
// the golden regression suite pins.
type Result struct {
	// Scenario echoes the spec name; Nodes and Seed the run's shape.
	Scenario string
	Nodes    int
	Seed     int64
	State    experiments.StateMode
	CC       congest.Policy

	// Epoch is when traffic started (after any learned-state warmup) and
	// End when the run stopped, both on the simulated clock.
	Epoch, End sim.Time
	// Convergence is when every node's LSA database first covered every
	// origin (learned runs; -1 if never, 0 for oracle runs).
	Convergence sim.Time
	// ProbeTx and FloodTx count the measurement plane's transmissions.
	ProbeTx, FloodTx int64

	Flows    []FlowOutcome
	Counters sim.Counters
	CCStats  congest.Stats
	Fairness experiments.FairnessReport

	// Telemetry is the metrics snapshot when the run was executed via
	// RunWith and a hub; nil (and omitted from the encoding) otherwise. It
	// is outside the digest: a run with a hub seals its golden's digest.
	Telemetry *telemetry.Report `json:",omitempty"`

	// Digest is the SHA-256 of the canonical encoding with this field
	// empty and Telemetry left out — one line a regression diff can compare
	// scenarios by.
	Digest string
}

// Done reports whether every flow met its scheduling verdict.
func (r *Result) Done() bool {
	for _, f := range r.Flows {
		if !f.Done {
			return false
		}
	}
	return true
}

// ComputeDigest returns the SHA-256 hex digest of the result's canonical
// encoding, taken with the Digest field empty and without the Telemetry
// block, which observes the run and does not change it.
func (r *Result) ComputeDigest() (string, error) {
	stripped := *r
	stripped.Digest = ""
	stripped.Telemetry = nil
	body, err := json.Marshal(&stripped)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}

// seal fills the digest field.
func (r *Result) seal() error {
	d, err := r.ComputeDigest()
	if err != nil {
		return err
	}
	r.Digest = d
	return nil
}

// Encode renders the canonical result document: indented JSON, stable
// field order, digest included. Byte-identical across runs of the same
// spec — the reproducibility contract the golden suite and CI smoke rely
// on.
func (r *Result) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ValidateResult checks an encoded result document against the schema: it
// must decode strictly into Result (unknown or mistyped fields fail), carry
// the required identity fields, satisfy basic accounting invariants, and
// embed the digest of its own canonical body. cmd/scenariocheck wraps this
// for CI.
func ValidateResult(data []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Result
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("scenario result: %v", err)
	}
	if r.Scenario == "" {
		return nil, fmt.Errorf("scenario result: missing scenario name")
	}
	if r.Nodes < 2 {
		return nil, fmt.Errorf("scenario result: implausible node count %d", r.Nodes)
	}
	if len(r.Flows) == 0 {
		return nil, fmt.Errorf("scenario result: no flows")
	}
	if len(r.Fairness.Flows) != len(r.Flows) {
		return nil, fmt.Errorf("scenario result: fairness covers %d of %d flows",
			len(r.Fairness.Flows), len(r.Flows))
	}
	var byFlow int64
	for _, v := range r.Counters.TxByFlow {
		byFlow += v
	}
	if byFlow != r.Counters.Transmissions {
		return nil, fmt.Errorf("scenario result: per-flow attribution sums to %d of %d transmissions",
			byFlow, r.Counters.Transmissions)
	}
	if r.End < r.Epoch {
		return nil, fmt.Errorf("scenario result: end %v before epoch %v", r.End, r.Epoch)
	}
	want, err := r.ComputeDigest()
	if err != nil {
		return nil, err
	}
	if r.Digest != want {
		return nil, fmt.Errorf("scenario result: digest %s does not match body (want %s)", r.Digest, want)
	}
	return &r, nil
}
