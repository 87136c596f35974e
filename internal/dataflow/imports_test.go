package dataflow_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordPathLinksNoSimulator pins that the record path does not link
// the paper-scale simulator: walking the module imports of
// repro/internal/dataflow (non-test files, the default build context)
// reaches neither the planner nor the analytic model it prices with.
// Configuration reaches the engines through core.Config alone; a planned
// configuration is applied to it before the session opens.
func TestRecordPathLinksNoSimulator(t *testing.T) {
	const module = "repro"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{module + "/internal/planner": true, module + "/internal/sim": true}
	from := map[string]string{} // import path → an importer that reached it
	queue := []string{module + "/internal/dataflow"}
	from[queue[0]] = ""
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if forbidden[path] {
			chain := path
			for p := from[path]; p != ""; p = from[p] {
				chain = p + " -> " + chain
			}
			t.Errorf("the record path links %s: %s", path, chain)
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module+"/")))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module+"/") {
				continue
			}
			if _, seen := from[imp]; !seen {
				from[imp] = path
				queue = append(queue, imp)
			}
		}
	}
	if len(from) < 10 {
		t.Fatalf("walked only %d packages from repro/internal/dataflow; the walk is broken", len(from))
	}
}
