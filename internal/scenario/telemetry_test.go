package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestRunWithTelemetryByteIdentity pins the observability contract at the
// scenario level: a run with a full telemetry hub must agree with the
// plain run on everything except the Telemetry block — strip that block,
// recompute the digest, and the two results are identical.
func TestRunWithTelemetryByteIdentity(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(specDir, "paper-testbed.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(telemetry.Config{ChromeTrace: true})
	instr, err := RunWith(spec, hub)
	if err != nil {
		t.Fatal(err)
	}

	if instr.Telemetry == nil {
		t.Fatal("instrumented run carries no telemetry block")
	}
	if plain.Telemetry != nil {
		t.Fatal("plain run carries a telemetry block")
	}
	if instr.Telemetry.Events != hub.Events() || hub.Events() == 0 {
		t.Fatalf("report events %d, hub %d", instr.Telemetry.Events, hub.Events())
	}
	fm := instr.Telemetry.FlowMetrics(1)
	if fm.Delivery.Count == 0 || fm.Delivery.P50Ms <= 0 {
		t.Fatalf("scenario metrics missing delivery latency: %+v", fm)
	}

	// Strip the extra block and re-seal: must equal the plain result,
	// digest included.
	stripped := *instr
	stripped.Telemetry = nil
	if err := stripped.seal(); err != nil {
		t.Fatal(err)
	}
	if stripped.Digest != plain.Digest {
		t.Fatalf("digest diverged under telemetry: %s vs %s", stripped.Digest, plain.Digest)
	}
	if !reflect.DeepEqual(&stripped, plain) {
		t.Fatal("stripped instrumented result differs from plain run")
	}

	// The instrumented result must still validate against the strict
	// schema (the Telemetry block is part of it now).
	enc, err := instr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateResult(enc); err != nil {
		t.Fatalf("instrumented result fails validation: %v", err)
	}
}

// TestNodeCountsSumToRunTotals holds a Hub's per-node rows to the medium's
// run totals: summed over nodes, Tx, MACAcks, Rx, Collisions and
// ChanLosses equal the run's Transmissions, MACAcks, Deliveries,
// Collisions and ChannelLosses, and each node's Tx equals its TxByNode
// entry. Every transmission and every reception outcome reaches the Hub as
// exactly one event. A change that stops emitting per-reception events must
// keep these rows. The specs cover three flows at once, a 200-node
// geometric mesh with collisions, a relay that fails mid-run, and push
// traffic under choke.
func TestNodeCountsSumToRunTotals(t *testing.T) {
	var collisions, losses int64
	for _, name := range []string{"more-testbed-3flows", "more-geometric-200", "node-failure-reroute-learned", "push-choke"} {
		t.Run(name, func(t *testing.T) {
			spec, err := Load(filepath.Join(specDir, name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunWith(spec, telemetry.NewHub(telemetry.Config{}))
			if err != nil {
				t.Fatal(err)
			}
			c := res.Counters
			var sum telemetry.NodeReport
			tx := make([]int64, len(c.TxByNode))
			for _, n := range res.Telemetry.Nodes {
				sum.Tx += n.Tx
				sum.MACAcks += n.MACAcks
				sum.Rx += n.Rx
				sum.Collisions += n.Collisions
				sum.ChanLosses += n.ChanLosses
				tx[n.Node] = n.Tx
			}
			got := []int64{sum.Tx, sum.MACAcks, sum.Rx, sum.Collisions, sum.ChanLosses}
			want := []int64{c.Transmissions, c.MACAcks, c.Deliveries, c.Collisions, c.ChannelLosses}
			if !reflect.DeepEqual(got, want) || c.Transmissions == 0 || c.Deliveries == 0 {
				t.Errorf("node rows sum to tx, acks, rx, collisions, losses %v; the run counted %v", got, want)
			}
			if !reflect.DeepEqual(tx, c.TxByNode) {
				t.Errorf("per-node Tx %v, TxByNode %v", tx, c.TxByNode)
			}
			collisions += c.Collisions
			losses += c.ChannelLosses
		})
	}
	if collisions == 0 || losses == 0 {
		t.Errorf("the specs lost %d receptions to collisions and %d to the channel: a sum of zeros checks nothing", collisions, losses)
	}
}
