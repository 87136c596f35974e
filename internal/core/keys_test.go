package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEveryConfigKeyIsRead fails on a setting that nothing reads or that
// is declared twice. The keys are the string constants of internal/core's
// config.go; the declarations are the calls in Config.settings, each naming
// a key constant and the &c.Field it sets. Parsing every non-test file of
// the module, the test requires every key constant to have exactly one
// declaration, named as its field; every declared field to be read outside
// internal/core (a selector on a value, not a package, and not the target
// of an assignment); and every key's string literal to appear once.
func TestEveryConfigKeyIsRead(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{} // key constant → its string value
	declared := map[string]int{}
	read := map[string]bool{} // selector names read outside internal/core
	literals := map[string]int{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			return err
		}
		if rel == "internal/core/config.go" {
			collectKeys(t, f, keys, declared)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					literals[v]++
				}
			}
			return true
		})
		if !strings.HasPrefix(rel, "internal/core/") {
			for name := range fieldReads(f) {
				read[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if keys["SparkDefaultParallelism"] == "" || keys["MRReduceTasks"] == "" || keys["FlinkCombineStrategy"] == "" {
		t.Fatalf("key scan found %d keys, missing a known one: %v", len(keys), keys)
	}
	for name, value := range keys {
		if declared[name] != 1 {
			t.Errorf("key %s has %d declarations in Config.settings, want 1", name, declared[name])
		}
		if !read[name] {
			t.Errorf("setting %s (%s) is never read outside internal/core and tests; read it or delete it", name, value)
		}
		if literals[value] != 1 {
			t.Errorf("key literal %q appears %d times in non-test code, want once (use core.%s)", value, literals[value], name)
		}
	}
	for name := range declared {
		if _, ok := keys[name]; !ok {
			t.Errorf("Config.settings declares %s, which is not a key constant", name)
		}
	}
}

// collectKeys records config.go's string constants in keys and counts, in
// declared, each key constant a Config.settings entry names. An entry must
// set the field named as its key.
func collectKeys(t *testing.T, f *ast.File, keys map[string]string, declared map[string]int) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.GenDecl:
			if decl.Tok != token.CONST {
				continue
			}
			for _, spec := range decl.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							keys[name.Name], _ = strconv.Unquote(lit.Value)
						}
					}
				}
			}
		case *ast.FuncDecl:
			if decl.Name.Name != "settings" {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 2 {
					return true
				}
				key, ok := call.Args[0].(*ast.Ident)
				if !ok {
					return true
				}
				declared[key.Name]++
				var field string
				if addr, ok := call.Args[1].(*ast.UnaryExpr); ok {
					if sel, ok := addr.X.(*ast.SelectorExpr); ok {
						field = sel.Sel.Name
					}
				}
				if field != key.Name {
					t.Errorf("the declaration of %s does not set the field %s", key.Name, key.Name)
				}
				return false
			})
		}
	}
}

// fieldReads returns the names of the selectors in f that read a value's
// field or method: the selected expression is not an imported package, and
// the selector is not the target of an assignment.
func fieldReads(f *ast.File) map[string]bool {
	pkgs := map[string]bool{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		pkgs[name] = true
	}
	written := map[ast.Expr]bool{}
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				written[lhs] = true
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && pkgs[x.Name] {
				return true
			}
			if !written[n] {
				out[n.Sel.Name] = true
			}
		}
		return true
	})
	return out
}
