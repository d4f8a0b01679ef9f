package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// guardManifest lists the tests CI requires to pass by name; its header
// says what a row is.
const guardManifest = "testdata/guards.txt"

// TestGuardManifest holds the guard manifest to the tree: every row names a
// Test or Fuzz function of its package's test files, a subtest by a name
// those files spell as a string literal, a fuzz seed by a file under the
// package's testdata/fuzz/, and no row appears twice. A guard renamed
// without its row fails here, in the plain suite, instead of leaving CI's
// Guards step to find it missing.
func TestGuardManifest(t *testing.T) {
	raw, err := os.ReadFile(guardManifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range guardProblems(string(raw)) {
		t.Error(p)
	}
}

// TestGuardManifestNamesProblems feeds the check a manifest with one fault
// of each kind beside two good rows and expects exactly the faults named: a
// check that cannot fail is not a check.
func TestGuardManifestNamesProblems(t *testing.T) {
	manifest := strings.Join([]string{
		"repro/internal/sim TestLinkProbMemo race",
		"repro/internal/sim TestNoSuchGuard",
		"repro/internal/sim TestCarrierMatchesEagerReference/lossy-chain race",
		"repro/internal/sim TestCarrierMatchesEagerReference/no-such-case race",
		"repro/internal/sim FuzzEventQueueOrder/no-such-seed race",
		"repro/internal/sim TestLinkProbMemo race",
		"repro/internal/sim TestLinkProbMemo slow",
		"repro/internal/nosuch TestX",
		"other/module TestX",
		"repro/internal/sim BenchmarkRun",
	}, "\n")
	want := []string{
		"guards.txt:2: repro/internal/sim has no func TestNoSuchGuard in its tests",
		`guards.txt:4: repro/internal/sim's tests spell no string literal "no-such-case"`,
		"guards.txt:5: repro/internal/sim has no seed testdata/fuzz/FuzzEventQueueOrder/no-such-seed",
		"guards.txt:6: repeats line 1",
		`guards.txt:7: want "package test [race]", got "repro/internal/sim TestLinkProbMemo slow"`,
		"guards.txt:8: repro/internal/nosuch has no test files",
		"guards.txt:9: other/module is not a package of module repro",
		"guards.txt:10: BenchmarkRun is not a Test or Fuzz func",
	}
	if got := guardProblems(manifest); !slices.Equal(got, want) {
		t.Errorf("problems:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// guardProblems checks each row of manifest against the test files of the
// package it names and returns one message per faulty row.
func guardProblems(manifest string) []string {
	var problems []string
	seen := map[string]int{} // row → line it was first seen on
	pkgs := map[string]*testFiles{}
	for i, line := range strings.Split(manifest, "\n") {
		fields := strings.Fields(strings.SplitN(line, "#", 2)[0])
		if len(fields) == 0 {
			continue
		}
		bad := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("guards.txt:%d: ", i+1)+fmt.Sprintf(format, args...))
		}
		if len(fields) > 3 || len(fields) < 2 || len(fields) == 3 && fields[2] != "race" {
			bad("want \"package test [race]\", got %q", strings.Join(fields, " "))
			continue
		}
		row := strings.Join(fields, " ")
		if first, ok := seen[row]; ok {
			bad("repeats line %d", first)
			continue
		}
		seen[row] = i + 1
		pkg, name := fields[0], fields[1]
		if pkg != "repro" && !strings.HasPrefix(pkg, "repro/") {
			bad("%s is not a package of module repro", pkg)
			continue
		}
		top, sub, _ := strings.Cut(name, "/")
		if !strings.HasPrefix(top, "Test") && !strings.HasPrefix(top, "Fuzz") {
			bad("%s is not a Test or Fuzz func", top)
			continue
		}
		if pkgs[pkg] == nil {
			pkgs[pkg] = loadTestFiles(filepath.FromSlash("." + strings.TrimPrefix(pkg, "repro")))
		}
		files := pkgs[pkg]
		switch {
		case len(files.funcs) == 0:
			bad("%s has no test files", pkg)
		case !files.funcs[top]:
			bad("%s has no func %s in its tests", pkg, top)
		case sub == "":
		case strings.HasPrefix(top, "Fuzz"):
			seed := filepath.Join(files.dir, "testdata", "fuzz", top, sub)
			if _, err := os.Stat(seed); err != nil {
				bad("%s has no seed testdata/fuzz/%s/%s", pkg, top, sub)
			}
		default:
			for _, part := range strings.Split(sub, "/") {
				if !files.literals[part] {
					bad("%s's tests spell no string literal %q", pkg, part)
				}
			}
		}
	}
	return problems
}

// testFiles is what the guard check reads from one package's _test.go files:
// its top-level func names and its string literals, spaces written as
// underscores the way go test names a subtest.
type testFiles struct {
	dir      string
	funcs    map[string]bool
	literals map[string]bool
}

// loadTestFiles parses every _test.go file in dir; a directory that does not
// exist or holds none yields no funcs.
func loadTestFiles(dir string) *testFiles {
	files := &testFiles{dir: dir, funcs: map[string]bool{}, literals: map[string]bool{}}
	paths, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	fset := token.NewFileSet()
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			continue // the build of that package reports it
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				files.funcs[fn.Name.Name] = true
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					files.literals[strings.ReplaceAll(s, " ", "_")] = true
				}
			}
			return true
		})
	}
	return files
}
