package repro

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// TestEveryConfigFieldHasAnAssigner is the option census: every exported
// field of a struct named Config, Options, *Config or *Options under
// internal/ must be assigned somewhere other than its own package: by a
// command, the benchmark under bench/, or another package's non-test code.
// A test is not a caller, and neither is a walkthrough under examples/: a
// field only its own defaults and tests ever set is not an option, it is a
// constant spelled as one. Delete the field, name the value beside the code
// that reads it, and move the tests onto that value. The exceptions are
// testOnlyOptions.
//
// The match is by field name, not by type, so a field sharing its name with
// an assigned field elsewhere (Seed, Window) passes unexamined: a tripwire,
// not a proof.
func TestEveryConfigFieldHasAnAssigner(t *testing.T) {
	census := optionCensus(t)
	t.Logf("%d exported Config/Options fields under internal/", len(census))
	var orphans []string
	for id, assigned := range census {
		if _, kept := testOnlyOptions[id]; !assigned && !kept {
			orphans = append(orphans, id)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is assigned by nothing but its own package and tests: make it a constant", o)
	}
}

// testOnlyOptions are the fields the option census lets tests alone assign,
// each kept for the ROADMAP item that needs its other value.
var testOnlyOptions = map[string]string{
	"internal/sim.Config.CaptureEnabled":         "ROADMAP 2(c): the stale-relevance reproducer runs with capture off",
	"internal/routing.PlanOptions.PruneFraction": "ROADMAP 2(a): the forwarder-cap fix is tested on a small plan",
	"internal/routing.PlanOptions.MaxForwarders": "ROADMAP 2(a): the forwarder-cap fix needs the cap small",
}

// TestTestOnlyOptionsAreTestOnly keeps the census's allowlist exact: every
// entry still exists, and no run assigns it (it would then be an ordinary
// option, and its entry only a way for it to lose that assigner unnoticed).
func TestTestOnlyOptionsAreTestOnly(t *testing.T) {
	census := optionCensus(t)
	for id, reason := range testOnlyOptions {
		switch assigned, exists := census[id]; {
		case !exists:
			t.Errorf("testOnlyOptions keeps %s, which no longer exists (%s)", id, reason)
		case assigned:
			t.Errorf("%s is assigned outside its package now: drop it from testOnlyOptions (%s)", id, reason)
		}
	}
}

// optionCensus walks the module's non-test Go files outside examples/ and
// reports, for every exported Config/Options field under internal/ (keyed
// "dir.Type.Field"), whether a field of that name is assigned — in a
// composite literal, an assignment or an inc/dec — outside its own package.
func optionCensus(t *testing.T) map[string]bool {
	t.Helper()
	type field struct{ dir, typ, name string }
	var fields []field
	// assigners[name] lists the package directories whose non-test code
	// assigns a field of that name.
	assigners := map[string]map[string]bool{}
	mark := func(name, where string) {
		if assigners[name] == nil {
			assigners[name] = map[string]bool{}
		}
		assigners[name][where] = true
	}
	// markSelectors marks every field named along an assignment target:
	// cfg.Probe.Window = 3 assigns into Probe as well as Window.
	var markSelectors func(e ast.Expr, where string)
	markSelectors = func(e ast.Expr, where string) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			mark(x.Sel.Name, where)
			markSelectors(x.X, where)
		case *ast.IndexExpr:
			markSelectors(x.X, where)
		case *ast.StarExpr:
			markSelectors(x.X, where)
		case *ast.ParenExpr:
			markSelectors(x.X, where)
		}
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "examples" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				st, ok := x.Type.(*ast.StructType)
				if !ok || !strings.HasPrefix(dir, "internal/") ||
					!(strings.HasSuffix(x.Name.Name, "Config") || strings.HasSuffix(x.Name.Name, "Options")) {
					return true
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							fields = append(fields, field{dir, x.Name.Name, id.Name})
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					mark(id.Name, dir)
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					markSelectors(lhs, dir)
				}
			case *ast.IncDecStmt:
				markSelectors(x.X, dir)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) < 50 {
		t.Fatalf("census found only %d config fields; the walk is broken", len(fields))
	}
	census := make(map[string]bool, len(fields))
	for _, f := range fields {
		outside := false
		for where := range assigners[f.name] {
			if where != f.dir {
				outside = true
				break
			}
		}
		census[f.dir+"."+f.typ+"."+f.name] = outside
	}
	return census
}

// TestSpecSurfaceIsRun is the usage census: what the spec loader admits is
// what the golden corpus runs. Every JSON key reachable from scenario.Spec
// must be set, and every value of every closed vocabulary
// (scenario.Vocabulary — the tables Spec.Validate itself checks against) must
// be named, by at least one spec under scenarios/, each of which
// scenario.TestGoldenScenarios runs against its golden. A key or value that
// fails here has no run saying it works: give it a spec, or delete it.
//
// Keys are matched by path, so topology.seed is not covered by the top-level
// seed. A key counts as set when a document spells it; the corpus is kept in
// canonical form, which omits zero values, so that means set to something.
func TestSpecSurfaceIsRun(t *testing.T) {
	keys := specKeyPaths(reflect.TypeOf(scenario.Spec{}), "")
	if len(keys) < 50 {
		t.Fatalf("census found only %d spec keys; the walk is broken", len(keys))
	}
	vocab := scenario.Vocabulary()
	for key := range vocab {
		if !slices.Contains(keys, key) {
			t.Errorf("vocabulary is keyed by %q, which is not a spec key path", key)
		}
	}
	unusedKeys, unusedValues := surfaceGaps(keys, vocab, specCorpus(t))
	for _, k := range unusedKeys {
		t.Errorf("spec key %s is set by no spec under scenarios/", k)
	}
	for _, v := range unusedValues {
		t.Errorf("admitted value %s is named by no spec under scenarios/", v)
	}
}

// TestSpecSurfaceCensusNamesGaps feeds the census a corpus with one key and
// one value taken out and expects exactly those two named: a census that
// cannot fail is not a census.
func TestSpecSurfaceCensusNamesGaps(t *testing.T) {
	docs := specCorpus(t)
	for _, doc := range docs {
		spec := doc.(map[string]any)
		if spec["metric"] == "eotx" {
			spec["metric"] = "etx"
		}
		for _, f := range spec["flows"].([]any) {
			delete(f.(map[string]any), "stop_s")
		}
	}
	keys := specKeyPaths(reflect.TypeOf(scenario.Spec{}), "")
	unusedKeys, unusedValues := surfaceGaps(keys, scenario.Vocabulary(), docs)
	if want := []string{"flows.stop_s"}; !slices.Equal(unusedKeys, want) {
		t.Errorf("unused keys %v, want %v", unusedKeys, want)
	}
	if want := []string{"metric=eotx"}; !slices.Equal(unusedValues, want) {
		t.Errorf("unused values %v, want %v", unusedValues, want)
	}
}

// specCorpus decodes every spec under scenarios/ as raw JSON.
func specCorpus(t *testing.T) []any {
	t.Helper()
	paths, err := filepath.Glob("scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario specs under scenarios/: %v", err)
	}
	docs := make([]any, len(paths))
	for i, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &docs[i]); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return docs
}

// specKeyPaths lists the JSON key path of every field reachable from struct
// type t, dotted and sorted ("flows.traffic.model"). A slice or pointer adds
// no path element.
func specKeyPaths(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		out = append(out, prefix+name)
		ft := t.Field(i).Type
		for ft.Kind() == reflect.Slice || ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, specKeyPaths(ft, prefix+name+".")...)
		}
	}
	sort.Strings(out)
	return out
}

// surfaceGaps returns, sorted, the key paths no document sets and the
// vocabulary values ("path=value") no document names at their path.
func surfaceGaps(keys []string, vocab map[string][]string, docs []any) (unusedKeys, unusedValues []string) {
	used := map[string]bool{} // "path" for a key, "path=value" for a string value
	var walk func(v any, path string)
	walk = func(v any, path string) {
		switch x := v.(type) {
		case map[string]any:
			for k, elem := range x {
				sub := strings.TrimPrefix(path+"."+k, ".")
				used[sub] = true
				walk(elem, sub)
			}
		case []any:
			for _, elem := range x {
				walk(elem, path)
			}
		case string:
			used[path+"="+x] = true
		}
	}
	for _, doc := range docs {
		walk(doc, "")
	}
	for _, k := range keys {
		if !used[k] {
			unusedKeys = append(unusedKeys, k)
		}
	}
	for key, values := range vocab {
		for _, v := range values {
			if !used[key+"="+v] {
				unusedValues = append(unusedValues, key+"="+v)
			}
		}
	}
	sort.Strings(unusedValues)
	return unusedKeys, unusedValues
}

// TestEveryExportedFuncHasACaller is the function census: every exported
// function or method under internal/ must be referenced by a program — a
// command, the benchmark, an example or another non-test file of the module —
// from outside its own body. A test is not a caller: an exported function
// only tests call is an oracle or fixture that belongs unexported in its
// package, or dead code. A method also counts as called when its
// type implements an interface the program uses that declares it, including
// the ones fmt and encoding/json call behind the program's back
// (dynamicInterfaces). The exceptions are testOnlyFuncs.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	census, err := repoFuncCensus()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d exported functions and methods under internal/", len(census))
	for _, id := range uncalled(census) {
		if _, kept := testOnlyFuncs[id]; !kept {
			t.Errorf("%s is called by nothing but tests: unexport it, or delete it", id)
		}
	}
}

// testOnlyFuncs are the exported functions the function census lets tests
// alone call, each needed by the tests of another package, which cannot
// reach an unexported name.
var testOnlyFuncs = map[string]string{
	"internal/graph.Line":                   "the line topology of 14 test files in congest, experiments, linkstate, routing and srcr",
	"internal/graph.Topology.Clone":         "core's TestDeadForwarderDoesNotStall plans over one topology and runs over a damaged copy",
	"internal/graph.Topology.Validate":      "linkstate's TestTopologyMatchesSetDirected checks the learned topology is well formed",
	"internal/graph.Topology.Edges":         "experiments' TestGoldenGeneratorTopologies pins each generator's edge count",
	"internal/sim.Simulator.Pending":        "the timer tests of probe, linkstate, exor and srcr count queued events",
	"internal/telemetry.Report.FlowMetrics": "experiments' and scenario's telemetry tests read one flow's metrics",
	"internal/packet.ResolveForwarders":     "routing's TestPlanSurvivesWireFormat resolves a decoded forwarder list",
	"internal/packet.CreditToWire":          "routing's TestPlanSurvivesWireFormat puts a plan's credits on the wire",
	"internal/packet.CreditFromWire":        "routing's TestPlanSurvivesWireFormat reads them back",
	"internal/gf256.Mul":                    "coding's fullwidth_test eliminates byte by byte through it, sharing no code with the kernel arms",
}

// TestTestOnlyFuncsAreTestOnly keeps the function census's allowlist exact:
// every entry still exists, and no program calls it (it would then need no
// entry, and its entry would only let it lose that caller unnoticed).
func TestTestOnlyFuncsAreTestOnly(t *testing.T) {
	census, err := repoFuncCensus()
	if err != nil {
		t.Fatal(err)
	}
	for id, reason := range testOnlyFuncs {
		switch called, exists := census[id]; {
		case !exists:
			t.Errorf("testOnlyFuncs keeps %s, which no longer exists (%s)", id, reason)
		case called:
			t.Errorf("%s is called by a program now: drop it from testOnlyFuncs (%s)", id, reason)
		}
	}
}

// TestFuncCensusNamesProblems runs the census over the fixture module under
// testdata/funccensus, which holds one uncalled exported function, one
// uncalled method, one method called only through an interface and one
// function that calls only itself, and expects exactly the first, second and
// fourth named: a census that cannot fail is not a census.
func TestFuncCensusNamesProblems(t *testing.T) {
	census, err := funcCensus("testdata/funccensus", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got := uncalled(census)
	want := []string{"internal/shape.Spin", "internal/shape.Square.Side", "internal/shape.Unused"}
	if !slices.Equal(got, want) {
		t.Errorf("uncalled %v, want %v", got, want)
	}
}

// repoFuncCensus runs funcCensus over this module once for both tests that
// read it.
var repoFuncCensus = sync.OnceValues(func() (map[string]bool, error) { return funcCensus(".", "repro") })

// uncalled lists, sorted, the census entries no program calls.
func uncalled(census map[string]bool) []string {
	var out []string
	for id, called := range census {
		if !called {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// dynamicInterfaces are the interfaces the standard library calls through
// on values the program hands it, named by package and type.
var dynamicInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
}

// funcCensus type-checks every non-test Go file for the host under root, the
// tree of module path module, and reports, for every exported function or
// method under root's internal/ (keyed "dir.Func" or "dir.Type.Method"),
// whether a program calls it: references it from outside its own body, or,
// for a method, implements an interface the program uses that declares it.
// The standard library is type-checked from source.
func funcCensus(root, module string) (map[string]bool, error) {
	fset := token.NewFileSet()
	// files[dir] holds the parsed non-test files of the package in dir.
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		files[rel] = append(files[rel], file)
		return nil
	})
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	check := func(dir string) (*types.Package, error) {
		if pkg := checked[dir]; pkg != nil {
			return pkg, nil
		}
		path := module
		if dir != "." {
			path += "/" + dir
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[dir], info)
		checked[dir] = pkg
		return pkg, err
	}
	imp = func(path string) (*types.Package, error) {
		if path == module || strings.HasPrefix(path, module+"/") {
			dir := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
			if dir == "" {
				dir = "."
			}
			if files[dir] == nil {
				return nil, fmt.Errorf("no package %s under %s", path, root)
			}
			return check(dir)
		}
		return std.Import(path)
	}
	for dir := range files {
		if _, err := check(dir); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", dir, err)
		}
	}

	// The candidates: exported funcs declared under internal/, with the span
	// of their declaration, inside which a reference is recursion.
	type candidate struct {
		id         string
		start, end token.Pos
	}
	candidates := map[*types.Func]candidate{}
	for dir, pkgFiles := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, file := range pkgFiles {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj := info.Defs[fn.Name].(*types.Func)
				id := dir + "." + fn.Name.Name
				if recv := receiverNamed(obj); recv != nil {
					id = dir + "." + recv.Obj().Name() + "." + fn.Name.Name
				}
				candidates[obj] = candidate{id, fn.Pos(), fn.End()}
			}
		}
	}
	census := make(map[string]bool, len(candidates))
	for _, c := range candidates {
		census[c.id] = false
	}
	for ident, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if c, ok := candidates[fn.Origin()]; ok && (ident.Pos() < c.start || ident.Pos() >= c.end) {
			census[c.id] = true
		}
	}

	// The interfaces the program uses: the type of any expression, any
	// parameter or result of a function value, and the dynamic ones.
	ifaces := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, tv := range info.Types {
		addIface(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					addIface(tuple.At(i).Type())
				}
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, d := range dynamicInterfaces {
		pkg, err := std.Import(d[0])
		if err != nil {
			return nil, err
		}
		addIface(pkg.Scope().Lookup(d[1]).Type())
	}
	for fn, c := range candidates {
		recv := receiverNamed(fn)
		if census[c.id] || recv == nil {
			continue
		}
		for it := range ifaces {
			// *T's method set holds T's as well.
			if m, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); m != nil && types.Implements(types.NewPointer(recv), it) {
				census[c.id] = true
				break
			}
		}
	}
	return census, nil
}

// importerFunc is a types.Importer written as a func.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// receiverNamed is the named type a method is declared on, or nil for a
// function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}
