package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// guard writes the two report files and runs the guard over them with the
// given -fail list; a nil baseline is a missing file.
func guard(t *testing.T, baseline []byte, current, fail string) int {
	t.Helper()
	dir := t.TempDir()
	base, cur := filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json")
	if baseline != nil {
		if err := os.WriteFile(base, baseline, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(cur, []byte(current), 0o644); err != nil {
		t.Fatal(err)
	}
	return run([]string{"-baseline", base, "-current", cur, "-fail", fail}, io.Discard, io.Discard)
}

const (
	ext4Base  = `[{"id":"ext4","rows":[{"label":"8 nodes","spark_s":100,"spark_std":0}]}]`
	ext4Worse = `[{"id":"ext4","rows":[{"label":"8 nodes","spark_s":130,"spark_std":9}]}]`
	ext4Same  = `[{"id":"ext4","rows":[{"label":"8 nodes","spark_s":110,"spark_std":9}]}]`
	tab1Only  = `[{"id":"tab1","table":[["WordCount","spark","TextFile"]]}]`
)

func TestGuardFailsAGatedWorsening(t *testing.T) {
	if code := guard(t, []byte(ext4Base), ext4Worse, "ext4"); code != 1 {
		t.Errorf("+30%% on a gated cell: exit %d, want 1", code)
	}
	if code := guard(t, []byte(ext4Base), ext4Same, "ext4"); code != 0 {
		t.Errorf("+10%% on a gated cell: exit %d, want 0", code)
	}
	if code := guard(t, []byte(ext4Base), ext4Worse, "ext6"); code != 0 {
		t.Errorf("+30%% on an ungated cell: exit %d, want 0 (a warning)", code)
	}
}

func TestGuardFailsAGateWithNoNumericCell(t *testing.T) {
	if code := guard(t, []byte(tab1Only), tab1Only, "tab1"); code != 1 {
		t.Errorf("gated family with only a table: exit %d, want 1", code)
	}
}

func TestGuardPassesWithoutBaseline(t *testing.T) {
	if code := guard(t, nil, ext4Worse, "ext4"); code != 0 {
		t.Errorf("missing baseline: exit %d, want 0", code)
	}
}
