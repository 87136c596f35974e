package shuffle_test

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestComparatorSortsOnlyWithoutKeyWriter names every comparator sort on a
// shuffle path. Records on a shuffle path sort by their normalized key
// (SortByNormKey or the packed run sorter); a sort.Slice/sort.SliceStable
// with a less closure is the fallback for keys that have no key writer.
// Parsing the non-test files of internal/shuffle and internal/engine/...,
// the test fails when such a call appears outside the table below, when a
// listed call disappears, or when a listed call is no longer guarded by
// its nil-writer condition. A guard is the source text of an enclosing if
// or case condition; an else or default branch contributes "!(cond)" for
// each condition it excludes.
func TestComparatorSortsOnlyWithoutKeyWriter(t *testing.T) {
	want := []struct{ file, fn, guard string }{
		{"engine/mapreduce/exec.go", "runReduceTask", "!(normKey != nil)"},
		{"engine/spark/pair.go", "shuffledRDD", "!(normKey != nil)"},
		{"engine/flink/dataset.go", "SortPartitionNormalized", "!(normKey != nil)"},
		{"shuffle/writer.go", "sortWriter.cut", "w.spec.Less != nil && w.spec.NormKey == nil"},
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var found []sortCall
	for _, dir := range []string{"shuffle", "engine"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			calls, err := comparatorSorts(path, filepath.ToSlash(rel))
			found = append(found, calls...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, w := range want {
		n := 0
		for _, c := range found {
			if c.file != w.file || c.fn != w.fn {
				continue
			}
			n++
			if !c.guardedBy(w.guard) {
				t.Errorf("%s %s: comparator sort at line %d is not guarded by %q (guards: %q)",
					c.file, c.fn, c.line, w.guard, c.guards)
			}
		}
		if n != 1 {
			t.Errorf("%s %s: %d comparator sorts, want 1", w.file, w.fn, n)
		}
	}
	for _, c := range found {
		listed := false
		for _, w := range want {
			listed = listed || (c.file == w.file && c.fn == w.fn)
		}
		if !listed {
			t.Errorf("%s:%d (%s): comparator sort on a shuffle path; sort by normalized key, or list it here with its nil-writer guard",
				c.file, c.line, c.fn)
		}
	}
}

// sortCall is one sort.Slice/sort.SliceStable call: the function declaring
// it (closures count as their enclosing declaration) and the conditions
// that lead to it, outermost first.
type sortCall struct {
	file, fn string
	line     int
	guards   []string
}

func (c sortCall) guardedBy(g string) bool {
	for _, have := range c.guards {
		if have == g {
			return true
		}
	}
	return false
}

// comparatorSorts parses one file and returns its comparator sort calls.
func comparatorSorts(path, rel string) ([]sortCall, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	sortName := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "sort" {
			sortName = "sort"
			if imp.Name != nil {
				sortName = imp.Name.Name
			}
		}
	}
	if sortName == "" {
		return nil, nil
	}
	text := func(e ast.Expr) string {
		var b strings.Builder
		printer.Fprint(&b, fset, e)
		return b.String()
	}
	var out []sortCall
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			name = recvName(fd.Recv.List[0].Type) + "." + name
		}
		var walk func(n ast.Node, guards []string)
		walk = func(n ast.Node, guards []string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if n.Init != nil {
						walk(n.Init, guards)
					}
					walk(n.Cond, guards)
					cond := text(n.Cond)
					walk(n.Body, with(guards, cond))
					if n.Else != nil {
						walk(n.Else, with(guards, "!("+cond+")"))
					}
					return false
				case *ast.SwitchStmt:
					if n.Tag != nil || n.Init != nil {
						return true // only tagless switches read as guards
					}
					var all []string
					for _, s := range n.Body.List {
						for _, e := range s.(*ast.CaseClause).List {
							all = append(all, text(e))
						}
					}
					for _, s := range n.Body.List {
						cc := s.(*ast.CaseClause)
						g := guards
						if cc.List == nil {
							for _, c := range all {
								g = with(g, "!("+c+")")
							}
						} else {
							var conds []string
							for _, e := range cc.List {
								conds = append(conds, text(e))
							}
							g = with(g, strings.Join(conds, " || "))
						}
						for _, st := range cc.Body {
							walk(st, g)
						}
					}
					return false
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == sortName &&
						(sel.Sel.Name == "Slice" || sel.Sel.Name == "SliceStable") {
						out = append(out, sortCall{file: rel, fn: name,
							line: fset.Position(n.Pos()).Line, guards: guards})
					}
				}
				return true
			})
		}
		walk(fd.Body, nil)
	}
	return out, nil
}

// with returns guards plus g in a fresh slice, so sibling branches never
// share a backing array.
func with(guards []string, g string) []string {
	return append(append([]string(nil), guards...), g)
}

// recvName is a method receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
