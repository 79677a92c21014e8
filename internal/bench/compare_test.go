package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchRow(fixture string, k int, cold, warm int64) SolverBenchRow {
	return SolverBenchRow{Fixture: fixture, K: k, Feasible: true,
		ColdNsPerOp: cold, WarmNsPerOp: warm}
}

// A synthetically regressed head artifact must fail the comparison — and
// the benchrun -compare entry point must surface that as a non-nil error
// (its non-zero exit), which is the whole CI gate.
func TestCompareSolverBenchRegression(t *testing.T) {
	base := &SolverBenchReport{Schema: "solver-bench/3", Rows: []SolverBenchRow{
		benchRow("Q1-fig5", 3, 1000000, 200000),
		benchRow("Q2", 2, 600000, 150000),
	}}
	head := &SolverBenchReport{Schema: "solver-bench/3", Rows: []SolverBenchRow{
		benchRow("Q1-fig5", 3, 1500000, 200000), // cold +50%: regression
		benchRow("Q2", 2, 600000, 150000),
	}}
	table, regressed := CompareSolverBench(base, head, 0.20)
	if !regressed {
		t.Fatal("a +50% cold regression within tolerance 0.20 must regress")
	}
	if !strings.Contains(table, "REGRESSED") {
		t.Errorf("table does not flag the regression:\n%s", table)
	}

	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	headPath := filepath.Join(dir, "head.json")
	if err := WriteSolverBenchJSON(basePath, base); err != nil {
		t.Fatal(err)
	}
	if err := WriteSolverBenchJSON(headPath, head); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareSolverBenchFiles(basePath, headPath, 0.20); err == nil {
		t.Error("CompareSolverBenchFiles must return an error on regression")
	}
	// Swapped direction: head faster than base is never a failure.
	if table, err := CompareSolverBenchFiles(headPath, basePath, 0.20); err != nil {
		t.Errorf("improvement flagged as regression: %v\n%s", err, table)
	}
}

// Within-tolerance drift, new cells, and dropped cells all pass.
func TestCompareSolverBenchTolerance(t *testing.T) {
	base := &SolverBenchReport{Schema: "solver-bench/3", Rows: []SolverBenchRow{
		benchRow("Q1-fig5", 3, 1000000, 200000),
		benchRow("Q2", 2, 500000, 100000),
	}}
	head := &SolverBenchReport{Schema: "solver-bench/3", Rows: []SolverBenchRow{
		benchRow("Q1-fig5", 3, 1150000, 210000), // +15%, +5%: noise
		benchRow("Q3", 2, 400000, 80000),        // new cell
	}}
	table, regressed := CompareSolverBench(base, head, 0.20)
	if regressed {
		t.Errorf("within-tolerance drift flagged as regression:\n%s", table)
	}
	if !strings.Contains(table, "new cell") || !strings.Contains(table, "dropped") {
		t.Errorf("table does not report cell churn:\n%s", table)
	}
}

// solver-bench/1 artifacts (no workers field) decode as sequential rows,
// so a v1 base still gates a sequential head.
func TestCompareSolverBenchSchemaV1(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	v1 := &SolverBenchReport{Schema: "solver-bench/1", Rows: []SolverBenchRow{
		benchRow("Q1-fig5", 3, 1000000, 200000),
	}}
	if err := WriteSolverBenchJSON(basePath, v1); err != nil {
		t.Fatal(err)
	}
	base, parallel, err := readSolverBenchJSON(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != 1 || len(parallel) != 0 {
		t.Fatalf("v1 row not read as sequential: rows=%d parallel=%d", len(base.Rows), len(parallel))
	}
	head := &SolverBenchReport{Schema: "solver-bench/3", Rows: []SolverBenchRow{
		benchRow("Q1-fig5", 3, 1600000, 200000),
	}}
	if _, regressed := CompareSolverBench(base, head, 0.20); !regressed {
		t.Error("v1 base row did not match the head row")
	}
}

// A solver-bench/2 base holds one row per worker count for each cell. Only
// its workers = 1 row is compared: the others measured the level-parallel
// solver, which a sequential head must not be judged against (at Q1 k=4
// its warm solve was ~32% faster, beyond the gate's tolerance). They are
// listed as dropped and never fail the gate.
func TestCompareSolverBenchSchemaV2Workers(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	cell := func(workers int, cold, warm int64) storedRow {
		return storedRow{SolverBenchRow: benchRow("Q1-fig5", 4, cold, warm), Workers: workers}
	}
	data, err := json.Marshal(struct {
		Schema string      `json:"schema"`
		Rows   []storedRow `json:"rows"`
	}{"solver-bench/2", []storedRow{
		cell(1, 61400000, 46900000),
		cell(2, 51900000, 31900000),
		cell(4, 50000000, 30000000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		head      SolverBenchRow
		regressed bool
	}{
		{"same as sequential", benchRow("Q1-fig5", 4, 61400000, 46900000), false},
		{"sequential +30% warm", benchRow("Q1-fig5", 4, 61400000, 61000000), true},
	} {
		headPath := filepath.Join(dir, "head.json")
		head := &SolverBenchReport{Schema: "solver-bench/3", Rows: []SolverBenchRow{tc.head}}
		if err := WriteSolverBenchJSON(headPath, head); err != nil {
			t.Fatal(err)
		}
		table, err := CompareSolverBenchFiles(basePath, headPath, 0.20)
		if (err != nil) != tc.regressed {
			t.Errorf("%s: regressed=%v, want %v\n%s", tc.name, err != nil, tc.regressed, table)
		}
		for _, w := range []string{"workers=2", "workers=4"} {
			if !strings.Contains(table, w) || strings.Count(table, "dropped") != 2 {
				t.Errorf("%s: %s row not listed as dropped:\n%s", tc.name, w, table)
			}
		}
	}
}
