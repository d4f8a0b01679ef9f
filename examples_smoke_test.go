package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesSmoke builds every example and runs it to completion,
// asserting a zero exit. The examples are sized to finish in well under a
// second each, so this doubles as a cheap end-to-end exercise of the
// public-facing API surface (quickstart, transfers, metrics, probing,
// spatial reuse).
func TestExamplesSmoke(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatalf("reading examples/: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no examples found")
	}
	binDir := t.TempDir()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(binDir, name)
			build := exec.Command("go", "build", "-o", bin, "./"+filepath.Join("examples", name))
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build failed: %v\n%s", err, out)
			}
			done := make(chan struct{})
			cmd := exec.Command(bin)
			var out []byte
			var runErr error
			go func() {
				out, runErr = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				_ = cmd.Process.Kill()
				t.Fatalf("example %s hung", name)
			}
			if runErr != nil {
				t.Fatalf("run failed: %v\n%s", runErr, out)
			}
			if len(out) == 0 {
				t.Fatalf("example %s produced no output", name)
			}
			// A flow.Result printed without its transmissions counted reads
			// 0.00 tx/pkt however many frames the flow sent.
			if bytes.Contains(out, []byte(" 0.00 tx/pkt")) {
				t.Errorf("example %s prints a result with no transmissions:\n%s", name, out)
			}
		})
	}
}
