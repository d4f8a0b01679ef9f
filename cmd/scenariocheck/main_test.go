package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

const goldenDir = "../../scenarios/golden"

// runCheck runs scenariocheck over paths (stdin when none) and returns the
// exit code and both streams.
func runCheck(t *testing.T, stdin string, paths ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(paths, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

// write stores doc under a fresh temporary name and returns its path.
func write(t *testing.T, name string, doc []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// golden reads the pinned result document of the named scenario.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenPasses: a golden result document validates from a file and from
// stdin, and two copies of it pass the cross-run identity check.
func TestGoldenPasses(t *testing.T) {
	doc := golden(t, "push-choke")
	path := write(t, "a.json", doc)
	code, out, errOut := runCheck(t, "", path, write(t, "b.json", doc))
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	want := ": ok — scenario push-choke, 5 nodes, 2 flows, done, digest 560a962776a1\n"
	if lines := strings.SplitAfter(out, "\n"); len(lines) != 3 || !strings.HasSuffix(lines[0], want) || !strings.HasSuffix(lines[1], want) {
		t.Errorf("stdout %q, want two lines ending %q", out, want)
	}
	code, out, _ = runCheck(t, string(doc))
	if code != 0 || out != "<stdin>"+want {
		t.Errorf("stdin: exit %d, stdout %q", code, out)
	}
}

// TestIncompleteRunIsReported: a valid document of a run that missed its
// schedule passes the schema and is reported INCOMPLETE.
func TestIncompleteRunIsReported(t *testing.T) {
	spec, err := scenario.Parse([]byte(`{"name":"cut-short","seed":1,"deadline_s":0.05,"topology":{"kind":"chain","nodes":3},
		"flows":[{"name":"bulk","protocol":"more","dst":2,"traffic":{"model":"file","bytes":65536}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCheck(t, string(doc))
	if code != 0 || !strings.Contains(out, "scenario cut-short, 3 nodes, 1 flows, INCOMPLETE") {
		t.Errorf("exit %d, stdout %q", code, out)
	}
}

// TestFlippedDigestFails: one changed digest character fails the document.
func TestFlippedDigestFails(t *testing.T) {
	doc := golden(t, "push-choke")
	at := bytes.Index(doc, []byte(`"Digest": "`)) + len(`"Digest": "`)
	flipped := bytes.Clone(doc)
	flipped[at] ^= 1 // '2' -> '3': still hex, no longer the body's digest
	code, out, errOut := runCheck(t, "", write(t, "flipped.json", flipped))
	if code != 1 || out != "" || !strings.Contains(errOut, "does not match body") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// TestDifferingDocumentsFail: two valid documents that differ fail the
// cross-run identity check, after both validated.
func TestDifferingDocumentsFail(t *testing.T) {
	a := write(t, "a.json", golden(t, "push-choke"))
	b := write(t, "b.json", golden(t, "push-stop-chain"))
	code, out, errOut := runCheck(t, "", a, b)
	if code != 1 || strings.Count(out, ": ok") != 2 {
		t.Errorf("exit %d, stdout %q", code, out)
	}
	if want := "scenariocheck: " + b + " differs from " + a + ": runs of one spec must be byte-identical\n"; errOut != want {
		t.Errorf("stderr %q, want %q", errOut, want)
	}
}

// TestUnreadableInputFails covers a missing file and a document that is not
// JSON.
func TestUnreadableInputFails(t *testing.T) {
	code, _, errOut := runCheck(t, "", filepath.Join(t.TempDir(), "missing.json"))
	if code != 1 || !strings.Contains(errOut, "no such file") {
		t.Errorf("missing file: exit %d, stderr %q", code, errOut)
	}
	code, _, errOut = runCheck(t, "{")
	if code != 1 || !strings.HasPrefix(errOut, "scenariocheck: <stdin>: scenario result:") {
		t.Errorf("truncated stdin: exit %d, stderr %q", code, errOut)
	}
}
