package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmoke runs all four workloads × three engines at tiny scale, timed
// and traced, and holds the output to the declaration in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.EndToEnd) > 8 || len(m.PerLayer) > 76 {
		t.Fatalf("declared %d end-to-end and %d per-layer metrics, budget is 8 and 76", len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench has %v", len(m.Workloads), workloadNames)
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in bench", i, w.Name, workloadNames[i])
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, mode := range []struct {
		trace    string
		declared []manifestMetric
		defs     []metricDef
	}{
		{"0", m.EndToEnd, endToEndDefs()},
		{"1", m.PerLayer, perLayerDefs()},
	} {
		if len(mode.declared) != len(mode.defs) {
			t.Fatalf("trace %s: BENCHMARK.json declares %d metrics, bench defines %d", mode.trace, len(mode.declared), len(mode.defs))
		}
		for i, d := range mode.declared {
			if d.Name != mode.defs[i].Name || d.Unit != mode.defs[i].Unit {
				t.Errorf("trace %s metric %d: BENCHMARK.json has %s [%s], bench has %s [%s]",
					mode.trace, i, d.Name, d.Unit, mode.defs[i].Name, mode.defs[i].Unit)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
			}
		}

		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scale", "tiny", "-seconds", "0", "-trace", mode.trace, "-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", mode.trace, code, stdout.String(), stderr.String())
		}
		var lines []resultLine
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(l, "{") {
				var r resultLine
				if err := json.Unmarshal([]byte(l), &r); err != nil {
					t.Fatalf("result line %q: %v", l, err)
				}
				lines = append(lines, r)
			}
		}
		if len(lines) != len(workloadNames) {
			t.Fatalf("trace %s: %d result lines for %d workloads", mode.trace, len(lines), len(workloadNames))
		}
		for i, r := range lines {
			w := workloadNames[i]
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, mode.trace, r.Correct, r.Attempted, r.Failed)
			}
			// A JSON object holds each key once, so equal sizes plus every
			// declared name present means exactly once and nothing else.
			if len(r.Metrics) != len(mode.declared) {
				t.Errorf("%s trace %s: %d metrics emitted, %d declared", w, mode.trace, len(r.Metrics), len(mode.declared))
			}
			for _, d := range mode.declared {
				got, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace %s: declared metric %s not emitted", w, mode.trace, d.Name)
				} else if got.Unit != d.Unit || got.Unit == "" {
					t.Errorf("%s trace %s: %s has unit %q, declared %q", w, mode.trace, d.Name, got.Unit, d.Unit)
				}
			}
			if mode.trace == "1" {
				checkSpans(t, filepath.Join(out, "trace-"+w+".json"))
			}
		}
	}
}

// checkSpans requires every child to lie inside its parent and carry its
// job id, and every root to have a job id of its own.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := map[int]*span{}
	roots := map[int]bool{}
	for _, s := range rec.Spans {
		byID[s.ID] = s
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d %s ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			if roots[s.Job] {
				t.Errorf("%s: job id %d is shared by two root spans", path, s.Job)
			}
			roots[s.Job] = true
		}
	}
	for _, s := range rec.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d %s has unknown parent %d", path, s.ID, s.Name, s.Parent)
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Job != p.Job {
			t.Errorf("%s: span %d %s [%d,%d] job %d does not nest in parent %s [%d,%d] job %d",
				path, s.ID, s.Name, s.StartNs, s.EndNs, s.Job, p.Name, p.StartNs, p.EndNs, p.Job)
		}
	}
}

// TestCheckerRejectsCorruptOutput corrupts one record of a correct output
// per workload and requires the checker to notice.
func TestCheckerRejectsCorruptOutput(t *testing.T) {
	for _, name := range workloadNames {
		inst, err := newInstance(name, 3, sizes["tiny"][name])
		if err != nil {
			t.Fatal(err)
		}
		s, err := openSession("spark")
		if err != nil {
			t.Fatal(err)
		}
		inst.load(s)
		out, err := inst.run(s)
		if err != nil {
			t.Fatal(err)
		}
		if failed, err := inst.check(s, out); failed != 0 || err != nil {
			t.Fatalf("%s: correct output rejected: %d failed, %v", name, failed, err)
		}

		switch name {
		case "wordcount":
			f, err := s.FS().Open("out")
			if err != nil {
				t.Fatal(err)
			}
			data := f.Contents()
			nl := bytes.IndexByte(data, '\n')
			// "{word n}" → "{word n0}": one key's count is ten times too big.
			corrupt := append(append(append([]byte{}, data[:nl-1]...), "0}"...), data[nl:]...)
			s.FS().WriteFile("out", corrupt)
		case "grep":
			out.([]int64)[2]++
		case "terasort":
			f, err := s.FS().Open("out")
			if err != nil {
				t.Fatal(err)
			}
			data := f.Contents()
			data[datagen.TeraRecordSize-1] ^= 0xff // payload byte: order intact, multiset not
			s.FS().WriteFile("out", data)
		case "pagerank":
			ranks := out.(map[int64]float64)
			for id := range ranks {
				ranks[id] += 1e-6
				break
			}
		}
		if failed, err := inst.check(s, out); failed != 1 || err == nil {
			t.Errorf("%s: corrupt output accepted: %d failed, %v", name, failed, err)
		}
	}
}

// TestSeedDiscipline: the seed alone fixes the inputs, and nothing but the
// generators and the instance constructor ever receives it.
func TestSeedDiscipline(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newInstance(name, 11, sizes["tiny"][name])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInstance(name, 11, sizes["tiny"][name])
		c, _ := newInstance(name, 12, sizes["tiny"][name])
		if a.inputSHA != b.inputSHA {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if a.inputSHA == c.inputSHA {
			t.Errorf("%s: different seeds, same inputs", name)
		}
	}

	allowed := map[string]bool{
		"datagen.Text": true, "datagen.TeraGen": true, "datagen.RMAT": true,
		"newInstance": true, "fs.Int64Var": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if !mentionsSeed(arg) {
					continue
				}
				var callee string
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					callee = fn.Name
				case *ast.SelectorExpr:
					if x, ok := fn.X.(*ast.Ident); ok {
						callee = x.Name + "." + fn.Sel.Name
					}
				}
				if !allowed[callee] {
					t.Errorf("%s: the seed is passed to %s", fset.Position(call.Pos()), callee)
				}
			}
			return true
		})
	}
}

// mentionsSeed reports whether the expression reads a variable or field
// named seed, outside any nested call (which is inspected on its own).
func mentionsSeed(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			return false
		case *ast.Ident:
			found = found || x.Name == "seed"
		}
		return true
	})
	return found
}
