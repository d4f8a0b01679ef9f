package main

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// parse runs args through moresim's flag set.
func parse(t *testing.T, args ...string) *cli {
	t.Helper()
	fs := flag.NewFlagSet("moresim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return c
}

// runFlags compiles args and runs the specs they ask for.
func runFlags(t *testing.T, args ...string) []specRun {
	t.Helper()
	c := parse(t, args...)
	specs, _, err := compile(c)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	runs, err := runSpecs(specs, c.parallel, nil)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return runs
}

// TestSpecFromFlags pins the flag → spec compile step: a flag set renders
// as the canonical spec document it is shorthand for, and that document is
// a fixed point of the strict loader.
func TestSpecFromFlags(t *testing.T) {
	cases := []struct {
		args string
		want string
	}{
		{"-proto more -topo testbed -file 65536", `{
  "name": "moresim",
  "seed": 1,
  "deadline_s": 3600,
  "topology": {
    "kind": "testbed"
  },
  "state": {
    "mode": "oracle"
  },
  "cc": {
    "policy": "none"
  },
  "batch": 32,
  "pkt_size": 1500,
  "flows": [
    {
      "name": "flow-1",
      "protocol": "more",
      "src": 3,
      "dst": 17,
      "traffic": {
        "model": "file",
        "bytes": 65536
      }
    }
  ]
}
`},
		{"-topo geometric -nodes 120 -flows 2 -file 49152 -cc choke -cc-queue 40 -drop 0.1", `{
  "name": "moresim",
  "seed": 1,
  "deadline_s": 3600,
  "topology": {
    "kind": "geometric",
    "nodes": 120,
    "degree": 10,
    "floors": 1,
    "drop": 0.1
  },
  "state": {
    "mode": "oracle"
  },
  "cc": {
    "policy": "choke",
    "queue": 40
  },
  "batch": 32,
  "pkt_size": 1500,
  "flows": [
    {
      "name": "flow-1",
      "protocol": "more",
      "auto_pair": true,
      "traffic": {
        "model": "file",
        "bytes": 49152
      }
    },
    {
      "name": "flow-2",
      "protocol": "more",
      "auto_pair": true,
      "traffic": {
        "model": "file",
        "bytes": 49152
      }
    }
  ]
}
`},
		{"-state learned -proto srcr-auto -topo chain -damp 0.2 -scope-rings 2,8 -piggyback -warmup 0 -sim-deadline 120 -metric eotx -seed 7 -k 16 -file 1000", `{
  "name": "moresim",
  "seed": 7,
  "deadline_s": 120,
  "topology": {
    "kind": "chain",
    "nodes": 6
  },
  "state": {
    "mode": "learned",
    "warmup_s": -1,
    "advertise_s": 5,
    "damp": 0.2,
    "scope_rings": [
      2,
      8
    ],
    "piggyback": true
  },
  "cc": {
    "policy": "none"
  },
  "batch": 16,
  "metric": "eotx",
  "pkt_size": 1500,
  "flows": [
    {
      "name": "flow-1",
      "protocol": "srcr-auto",
      "dst": 5,
      "traffic": {
        "model": "file",
        "bytes": 1000
      }
    }
  ]
}
`},
	}
	for _, tc := range cases {
		spec, err := specFromFlags(parse(t, strings.Fields(tc.args)...))
		if err != nil {
			t.Errorf("%s: %v", tc.args, err)
			continue
		}
		doc, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(doc) != tc.want {
			t.Errorf("%s: spec\n%s\nwant\n%s", tc.args, doc, tc.want)
		}
		again, err := scenario.Parse(doc)
		if err != nil {
			t.Errorf("%s: own encoding rejected: %v", tc.args, err)
			continue
		}
		if redoc, _ := again.Encode(); !bytes.Equal(redoc, doc) {
			t.Errorf("%s: Parse∘Encode is not idempotent:\n%s", tc.args, redoc)
		}
	}
}

// TestBadFlagsAreValidateErrors: a bad value surfaces as the loader's error
// (or, for what a spec cannot say, specFromFlags' own) — never a panic, and
// never a silent default.
func TestBadFlagsAreValidateErrors(t *testing.T) {
	// A spec file carrying a key the loader no longer has is refused like any
	// unknown one.
	removedKey := filepath.Join(t.TempDir(), "credit-min-k.json")
	if err := os.WriteFile(removedKey, []byte(`{"name":"x","seed":1,"deadline_s":10,"topology":{"kind":"testbed"},
		"cc":{"policy":"credit","credit_min_k":8},
		"flows":[{"name":"f","protocol":"more","src":3,"dst":17,"traffic":{"model":"file","bytes":1000}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for args, want := range map[string]string{
		"-k 1":                             "batch must be >= 2",
		"-k 0":                             "must be > 0",
		"-drop 1.5":                        "outside [0,1)",
		"-state learned -scope-rings 8,2":  "scope_rings must be ascending",
		"-state learned -scope-rings 2,x":  "bad -scope-rings entry",
		"-state learned -advertise 0":      "must be > 0",
		"-state learned -advertise -1":     "state knobs must be non-negative",
		"-topo torus":                      "unknown topology kind",
		"-proto tcp":                       "unknown protocol",
		"-cc red":                          "unknown policy",
		"-cc aimd":                         `unknown policy "aimd" (want none, tail, choke, credit)`,
		"-cc cubic":                        `unknown policy "cubic" (want none, tail, choke, credit)`,
		"-topo corridor":                   `unknown topology kind "corridor" (want testbed, chain, diamond, grid, geometric)`,
		"-metric hops":                     "unknown metric",
		"-state psychic":                   "unknown state mode",
		"-sim-deadline -5":                 "deadline_s must be > 0",
		"-topo testbed -nodes 50":          "fixed size of 20 nodes",
		"-topo chain -degree 12":           "degree/floors apply to geometric",
		"-advertise 2":                     "state knobs apply to mode learned only",
		"-piggyback":                       "state knobs apply to mode learned only",
		"-warmup 10":                       "state knobs apply to mode learned only",
		"-topo testbed -src 3 -dst 40":     "outside topology of 20 nodes",
		"-flows 2 -src 1":                  "cannot be combined with -src/-dst",
		"-topo geometric -nodes 50 -src 1": "both -src and -dst or neither",
		"-scale 60 -topo chain":            "-scale sweeps geometric topologies",
	} {
		_, err := specFromFlags(parse(t, strings.Fields(args)...))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", args, err, want)
		}
	}
	for args, want := range map[string]string{
		"-scale 60,1":                         "needs nodes >= 2",
		"-scale 60,x":                         "bad -scale entry",
		"-cc-sweep":                           "-cc-sweep needs -scale",
		"-scale 60 -proto all":                "-scale needs a single protocol",
		"-scale 60 -cc-sweep -state learned":  "drop -state learned",
		"-proto all -state learned":           "-proto all runs the oracle control plane",
		"-proto all -flows 2":                 "-proto all compares a single pair",
		"-proto all -metrics m.json":          "need a single simulation run",
		"-state learned -trace":               "need a single simulation run",
		"-scenario x.json -seed 5":            "-seed does not combine with -scenario",
		"-scenario x.json -json -cc choke":    "-cc does not combine with -scenario",
		"-scenario /nonexistent/x.json -json": "no such file",
		"-scenario " + removedKey + " -json":  `unknown field "credit_min_k"`,
	} {
		_, _, err := compile(parse(t, strings.Fields(args)...))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", args, err, want)
		}
	}
}

// TestStartErrorIsReported: a flow whose source has no route when its start
// fires is named on stderr with the protocol's error.
func TestStartErrorIsReported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.json")
	if err := os.WriteFile(path, []byte(`{"name":"cut","seed":1,"deadline_s":30,"topology":{"kind":"diamond"},
		"flows":[{"name":"flow-1","protocol":"more","dst":2,"start_s":1,"traffic":{"model":"file","bytes":32768}}],
		"events":[{"at_s":0,"action":"fail_node","node":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	reportStartErrors(&stderr, runFlags(t, "-scenario", path))
	if got, want := stderr.String(), "cut: flow-1: core: flow 1: routing: destination 2 unreachable from 0\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
	stderr.Reset()
	reportStartErrors(&stderr, runFlags(t, "-topo", "diamond", "-file", "32768"))
	if stderr.Len() != 0 {
		t.Errorf("a run whose flow started reported %q", stderr.String())
	}
}

// TestFlagRunsMatchParent pins the flag-driven command lines to the values
// the hand-built Options path produced before flags compiled to specs
// (captured from the parent commit): the compile step may move neither a
// flow's endpoints, timing, delivery, cost or verification, nor the run-wide
// transmission, MAC-ACK and air-time totals — a run of file transfers ends
// when its last flow completes, on either path.
func TestFlagRunsMatchParent(t *testing.T) {
	type flowPin struct {
		src, dst, delivered int
		end                 sim.Time
		tx                  int64
	}
	type runPin struct {
		tx, macAcks int64
		airTime     sim.Time
		flows       []flowPin
	}
	for args, pin := range map[string]runPin{
		"-proto more -topo testbed -file 65536":              {213, 5, 508064608, []flowPin{{3, 17, 44, 545248427, 213}}},
		"-proto exor -topo testbed -file 65536":              {267, 10, 455434051, []flowPin{{3, 17, 44, 674038382, 267}}},
		"-proto srcr -topo testbed -file 65536":              {390, 275, 943021803, []flowPin{{3, 17, 44, 1015042349, 390}}},
		"-proto srcr-auto -topo testbed -file 65536":         {463, 234, 628621084, []flowPin{{3, 17, 44, 846193813, 463}}},
		"-proto more -metric eotx -topo testbed -file 65536": {219, 5, 521133692, []flowPin{{3, 17, 44, 551559511, 219}}},
		"-topo geometric -nodes 120 -flows 3 -file 49152 -cc choke": {4191, 98, 11395403461, []flowPin{
			{41, 87, 33, 3558672717, 2017}, {47, 59, 33, 4097081611, 2131}, {1, 78, 33, 546952717, 43}}},
	} {
		res := runFlags(t, strings.Fields(args)...)[0].res
		if len(res.Flows) != len(pin.flows) {
			t.Fatalf("%s: %d flows, want %d", args, len(res.Flows), len(pin.flows))
		}
		c := res.Counters
		if c.Transmissions != pin.tx || c.MACAcks != pin.macAcks || c.AirTime != pin.airTime {
			t.Errorf("%s: run-wide tx=%d macAcks=%d airTime=%d, want %d/%d/%d",
				args, c.Transmissions, c.MACAcks, c.AirTime, pin.tx, pin.macAcks, pin.airTime)
		}
		for i, want := range pin.flows {
			r := res.Flows[i].Result
			got := flowPin{int(r.Src), int(r.Dst), r.PacketsDelivered, r.End, r.Transmissions}
			if got != want || !r.Completed || !r.Verified {
				t.Errorf("%s flow %d: got %+v completed=%v verified=%v, want %+v completed and verified",
					args, i, got, r.Completed, r.Verified, want)
			}
		}
	}
}

// gapOf runs a -state learned command line and reduces it as printGap does.
func gapOf(t *testing.T, args ...string) gapReport {
	t.Helper()
	runs := runFlags(t, append([]string{"-state", "learned"}, args...)...)
	if len(runs) != 2 || runs[0].res.State != experiments.StateLearned || runs[1].res.State != experiments.StateOracle {
		t.Fatalf("%v: want the learned spec then its oracle twin, got %d runs", args, len(runs))
	}
	return gap("", runs[1].res, runs[0].res)
}

// TestGapRunMatchesParent pins both sides of the gap report to the parent's.
func TestGapRunMatchesParent(t *testing.T) {
	rep := gapOf(t, "-proto", "more", "-topo", "testbed", "-file", "65536")
	if rep.Oracle.Throughput != 82.40771196390536 || rep.Learned.Throughput != 58.207376165176406 ||
		rep.Oracle.Completed != 1 || rep.Learned.Completed != 1 || rep.Flows != 1 ||
		rep.Convergence != 5373783732 || rep.ThroughputRatio != 0.706334089104079 ||
		rep.Oracle.Transmissions != 213 || rep.Learned.Transmissions != 3148 ||
		rep.ProbeTx != 605 || rep.FloodTx != 2261 {
		t.Errorf("gap run drifted from the parent's: %+v", rep)
	}
}

// TestLearnedStateEndToEnd runs each protocol over the paper testbed with
// routing state built solely from in-simulation probes and LSA floods, and
// asserts the transfer completes and the learned side stays within a sane
// gap of its oracle twin.
func TestLearnedStateEndToEnd(t *testing.T) {
	for _, proto := range []string{"more", "exor", "srcr"} {
		rep := gapOf(t, "-proto", proto, "-topo", "testbed", "-file", "65536")
		if rep.Learned.Completed != 1 {
			t.Fatalf("%v: learned-state transfer did not complete", proto)
		}
		if rep.Convergence <= 0 {
			t.Errorf("%v: measurement plane never converged (conv=%v)", proto, rep.Convergence)
		}
		if rep.ProbeTx == 0 || rep.FloodTx == 0 {
			t.Errorf("%v: no measurement traffic recorded (probes=%d floods=%d)", proto, rep.ProbeTx, rep.FloodTx)
		}
		// Learned routes should be usable, not an order of magnitude off:
		// throughput within 3x of the oracle, data-plane cost within 3x.
		if rep.ThroughputRatio < 1.0/3 {
			t.Errorf("%v: learned throughput ratio %.2f below 1/3 of oracle", proto, rep.ThroughputRatio)
		}
		if rep.DataTxPerPacketRatio > 3 {
			t.Errorf("%v: learned data tx/pkt ratio %.2f above 3x oracle", proto, rep.DataTxPerPacketRatio)
		}
	}
}

// TestScaleRowsMatchParent pins the deterministic columns of -scale rows to
// the parent's, including the per-point seed derivation. The last row is the
// credit cell of a -cc-sweep — the sweep is congest.Policies(), one cell per
// policy and node count — pinned to the parent's single `-cc credit` run of
// the same point. It is an unbounded credit cell: ending it any later than
// its last flow's completion lets forwarders that missed the final ACK keep
// each other busy until the 3600 s deadline (ROADMAP item 2(b)), a
// thousandfold tx/pkt.
func TestScaleRowsMatchParent(t *testing.T) {
	sweep := runFlags(t, strings.Fields("-scale 60 -flows 2 -file 24576 -seed 3 -cc-sweep")...)
	if len(sweep) != len(congest.Policies()) {
		t.Fatalf("-cc-sweep ran %d cells for one node count, want one per policy (%d)", len(sweep), len(congest.Policies()))
	}
	credit := sweep[congest.Credit]
	rows, done := scaleRows(append(
		runFlags(t, strings.Fields("-topo geometric -scale 60,90 -file 24576 -seed 3")...), credit))
	want := []scaleRow{
		{Nodes: 60, SpecSeed: 3, UsableLinks: 402, Completed: 1, Throughput: 52.79437522515248, TxPerPacket: 15.235294117647058, SimTime: 341202000},
		{Nodes: 90, SpecSeed: 1000006, UsableLinks: 568, Completed: 1, Throughput: 69.76435562280146, TxPerPacket: 6.882352941176471, SimTime: 271246536},
		{Nodes: 60, SpecSeed: 3, UsableLinks: 402, Completed: 2, Throughput: 76.46944422764953, TxPerPacket: 28.5, SimTime: 619296635, CC: congest.Credit},
	}
	if !done || len(rows) != len(want) {
		t.Fatalf("done=%v, %d rows", done, len(rows))
	}
	for i, w := range want {
		r := rows[i]
		got := scaleRow{Nodes: r.Nodes, SpecSeed: r.SpecSeed, UsableLinks: r.UsableLinks, Completed: r.Completed,
			Throughput: r.Throughput, TxPerPacket: r.TxPerPacket, SimTime: r.SimTime, CC: r.CC}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("row %d: got %+v, want %+v", i, got, w)
		}
	}
	// The run itself ends once the last flow's source has its final ACK.
	if end := credit.res.End; end > rows[2].SimTime+sim.Second {
		t.Errorf("credit cell ran until %v, its last flow was decoded at %v", end, rows[2].SimTime)
	}
}

// TestScalePointSmoke runs one moderate geometric point end to end.
func TestScalePointSmoke(t *testing.T) {
	rows, _ := scaleRows(runFlags(t, strings.Fields("-scale 150 -flows 2 -drop 0.1 -file 49152")...))
	pt := rows[0]
	if pt.Nodes != 150 {
		t.Fatalf("nodes = %d", pt.Nodes)
	}
	if pt.Completed != 2 {
		t.Fatalf("completed %d/2 flows: %+v", pt.Completed, pt)
	}
	if pt.Throughput <= 0 || pt.TxPerPacket <= 0 || math.IsNaN(pt.TxPerPacket) {
		t.Fatalf("degenerate metrics: %+v", pt)
	}
	if pt.UsableLinks <= 0 || pt.MeanDegree <= 0 {
		t.Fatalf("topology stats missing: %+v", pt)
	}
}

// TestScalingSweepDeterministicAcrossWorkers locks in the spec-list fan-out's
// parallel determinism: any worker count produces the same digest-sealed
// documents, under -scale and under -cc-sweep. The sweep's rows are
// congest.Policies(), policy-major — the list is derived, so a policy cannot
// be admitted by -cc and missing from the sweep.
func TestScalingSweepDeterministicAcrossWorkers(t *testing.T) {
	for _, mode := range []string{"-scale 60,90 -file 24576 -seed 3", "-scale 60,90 -flows 2 -file 24576 -seed 5 -cc-sweep"} {
		digests := func(workers string) (out []string, swept []congest.Policy) {
			for _, r := range runFlags(t, append(strings.Fields(mode), "-parallel", workers)...) {
				out = append(out, r.res.Digest)
				if r.res.Nodes == 60 {
					swept = append(swept, r.res.CC)
				}
			}
			return out, swept
		}
		serial, swept := digests("1")
		parallel, _ := digests("4")
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s depends on worker count:\nserial:   %v\nparallel: %v", mode, serial, parallel)
		}
		if strings.Contains(mode, "-cc-sweep") && !reflect.DeepEqual(swept, congest.Policies()) {
			t.Errorf("%s swept %v, want every policy: %v", mode, swept, congest.Policies())
		}
	}
}
