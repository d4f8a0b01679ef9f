// Command scenariocheck validates scenario result documents against the
// schema: strict field checking, accounting invariants (per-flow
// transmission attribution must sum to the medium total), and the embedded
// digest recomputed over the canonical body. CI pipes `moresim -scenario
// … -json` output through it so a malformed or non-reproducible result
// fails the build rather than landing in a dashboard.
//
//	moresim -scenario scenarios/push-choke.json -json | scenariocheck
//	scenariocheck run1.json run2.json
//
// With multiple files the documents must also be byte-identical to each
// other — the quick reproducibility check (same spec, two runs, cmp).
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run checks the documents at paths (stdin when there are none), printing
// one line per valid document to stdout. It returns 1 after naming the
// first failure on stderr, 0 when every document passed.
func run(paths []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if err := checkAll(paths, stdin, stdout); err != nil {
		fmt.Fprintf(stderr, "scenariocheck: %v\n", err)
		return 1
	}
	return 0
}

// checkAll validates each document in turn and, given several, that they
// are byte-identical to the first.
func checkAll(paths []string, stdin io.Reader, stdout io.Writer) error {
	if len(paths) == 0 {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return fmt.Errorf("reading stdin: %v", err)
		}
		return check(stdout, "<stdin>", data)
	}
	var first []byte
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := check(stdout, path, data); err != nil {
			return err
		}
		if i == 0 {
			first = data
		} else if !bytes.Equal(first, data) {
			return fmt.Errorf("%s differs from %s: runs of one spec must be byte-identical", path, paths[0])
		}
	}
	return nil
}

// check validates one document and reports it on stdout.
func check(stdout io.Writer, name string, data []byte) error {
	res, err := scenario.ValidateResult(data)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	status := "done"
	if !res.Done() {
		status = "INCOMPLETE"
	}
	fmt.Fprintf(stdout, "%s: ok — scenario %s, %d nodes, %d flows, %s, digest %s\n",
		name, res.Scenario, res.Nodes, len(res.Flows), status, res.Digest[:12])
	return nil
}
