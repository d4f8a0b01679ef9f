package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate scenarios/golden and canonicalize scenario specs")

const (
	specDir   = "../../scenarios"
	goldenDir = "../../scenarios/golden"
)

// specPaths lists the curated scenario corpus.
func specPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(specDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario specs under %s: %v", specDir, err)
	}
	return paths
}

// TestGoldenScenarios is the scenario regression suite: every spec in
// scenarios/ runs deterministically and its canonical result must match
// the pinned golden byte for byte — counters, per-flow throughput,
// fairness, digests, everything. A future PR that changes any scenario's
// behavior regenerates with -update and the diff shows exactly which
// scenarios moved and how.
func TestGoldenScenarios(t *testing.T) {
	paths := specPaths(t)
	if len(paths) < 6 {
		t.Fatalf("golden corpus shrank to %d specs; keep at least 6", len(paths))
	}
	// The specs the corpus must keep: push-choke pins AQM drops firing; the
	// rest are the failure, churn, scoped-learned-state and hotspot runs
	// whose end-to-end coverage lives only here, so deleting one of them
	// (with its golden) must fail rather than drop out of the suite.
	required := map[string]bool{
		"push-choke":                   false,
		"node-failure-reroute":         false,
		"node-failure-reroute-learned": false,
		"churn-2000":                   false,
		"soak-churn":                   false,
		"learned-512":                  false,
		"hotspot-512":                  false,
	}
	for _, path := range paths {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			// The corpus is kept in canonical (normalized) form so the spec
			// a reader sees is exactly the spec that runs.
			canon, err := spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.WriteFile(path, canon, 0o644); err != nil {
					t.Fatal(err)
				}
			} else if string(canon) != string(raw) {
				t.Errorf("spec file is not canonical; run go test ./internal/scenario -update")
			}

			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done() {
				t.Errorf("scenario did not finish its schedule: %+v", res.Flows)
			}
			enc, err := res.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ValidateResult(enc); err != nil {
				t.Errorf("result fails the schema: %v", err)
			}
			goldenPath := filepath.Join(goldenDir, name+".json")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, enc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/scenario -update): %v", err)
			}
			if string(enc) != string(want) {
				t.Errorf("result diverged from golden %s;\nif the change is intended, regenerate with -update", goldenPath)
			}
		})
		if _, ok := required[name]; ok {
			required[name] = true
		}
	}
	for name, seen := range required {
		if !seen {
			t.Errorf("corpus lost the required scenario %s", name)
		}
	}
}

// TestGoldenPushChokeDrops asserts the acceptance property directly: the
// pinned push-traffic golden records CHOKe same-flow drops actually
// happening (the gap this PR closes).
func TestGoldenPushChokeDrops(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(goldenDir, "push-choke.json"))
	if err != nil {
		t.Skipf("golden not generated yet: %v", err)
	}
	res, err := ValidateResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if res.CCStats.ChokeDrops == 0 {
		t.Error("push-choke golden pins zero CHOKe drops — the AQM gap is back")
	}
	if res.CCStats.Pushed == 0 {
		t.Error("push-choke golden shows no pushed frames")
	}
}
