package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryConfigFieldHasAnAssigner is the option census: every exported
// field of a struct named Config, Options, *Config or *Options under
// internal/ must be assigned somewhere other than its own package's non-test
// files — by a command, an example, the benchmark, another package, or a
// test. A field only its own defaults ever set is not an option, it is a
// constant spelled as one: delete the field and name the value beside the
// code that reads it.
//
// The match is by field name, not by type, so a field sharing its name with
// an assigned field elsewhere (Seed, Window) passes unexamined: a tripwire,
// not a proof.
func TestEveryConfigFieldHasAnAssigner(t *testing.T) {
	type field struct{ dir, typ, name string }
	var fields []field
	// assigned[name] lists the package directories (with a "_test" suffix
	// for test files) that assign a field of that name.
	assigned := map[string]map[string]bool{}
	mark := func(name, where string) {
		if assigned[name] == nil {
			assigned[name] = map[string]bool{}
		}
		assigned[name][where] = true
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
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		where := dir
		if strings.HasSuffix(path, "_test.go") {
			where += "_test"
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				st, ok := x.Type.(*ast.StructType)
				if !ok || where != dir || !strings.HasPrefix(dir, "internal/") ||
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
					mark(id.Name, where)
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					markSelectors(lhs, where)
				}
			case *ast.IncDecStmt:
				markSelectors(x.X, where)
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

	var orphans []string
	for _, f := range fields {
		outside := false
		for where := range assigned[f.name] {
			if where != f.dir {
				outside = true
				break
			}
		}
		if !outside {
			orphans = append(orphans, f.dir+"."+f.typ+"."+f.name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is assigned by nothing outside its own package's defaults: make it a constant", o)
	}
}
