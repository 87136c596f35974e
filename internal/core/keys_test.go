package core_test

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

// TestEveryConfigKeyIsRead fails on a configuration key that nothing reads:
// a key only written — by NewConfig's defaults, an experiment or a user —
// changes nothing. The keys are the string constants of internal/core's
// config.go and of the non-test files of internal/engine/... (the
// engine-internal keys). Parsing every non-test file of the module, the test
// requires each key to be the first argument of a Config getter (String,
// Int, Float, Bool or Bytes) somewhere.
func TestEveryConfigKeyIsRead(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{} // every key constant, as "package.Name"
	read := map[string]bool{} // every constant a getter is called with
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if rel == "internal/core/config.go" || strings.HasPrefix(rel, "internal/engine/") {
			for _, name := range stringConsts(f) {
				keys[pkg+"."+name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "String", "Int", "Float", "Bytes":
				switch arg := call.Args[0].(type) {
				case *ast.Ident:
					read[pkg+"."+arg.Name] = true
				case *ast.SelectorExpr:
					if x, ok := arg.X.(*ast.Ident); ok {
						read[x.Name+"."+arg.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !keys["core.SparkDefaultParallelism"] || !keys["mapreduce.MRReduceTasks"] || !keys["flink.FlinkCombineStrategy"] {
		t.Fatalf("key scan found %d keys, missing a known one: %v", len(keys), keys)
	}
	var unread []string
	for k := range keys {
		if !read[k] {
			unread = append(unread, k)
		}
	}
	sort.Strings(unread)
	for _, k := range unread {
		t.Errorf("configuration key %s is never read by a Config getter outside tests; read it or delete it", k)
	}
}

// stringConsts returns the names of f's package-level constants whose value
// is a string literal.
func stringConsts(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						names = append(names, name.Name)
					}
				}
			}
		}
	}
	return names
}
