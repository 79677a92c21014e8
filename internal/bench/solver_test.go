package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSolverBenchRowSmoke measures the cheapest fixture once and checks the
// row is populated and serializable (the full corpus runs in CI via
// benchrun -exp solver).
func TestSolverBenchRowSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two testing.Benchmark measurements")
	}
	fx := solverFixtures()[1] // Q2
	row, err := runSolverRow(fx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Feasible || row.EstimatedCost <= 0 {
		t.Errorf("Q2 k=2 should be feasible with positive cost, got %+v", row)
	}
	if row.ColdNsPerOp <= 0 || row.ColdAllocsPerOp <= 0 || row.WarmNsPerOp <= 0 {
		t.Errorf("timings not populated: %+v", row)
	}
	if row.Psi <= 0 || row.Solutions <= 0 || row.Subproblems <= 0 || row.Components <= 0 {
		t.Errorf("candidate-graph stats not populated: %+v", row)
	}
	if row.WarmNsPerOp > row.ColdNsPerOp {
		t.Logf("note: warm (%d ns) slower than cold (%d ns) — noisy machine?", row.WarmNsPerOp, row.ColdNsPerOp)
	}

	rep := &SolverBenchReport{Schema: "solver-bench/3", Rows: []SolverBenchRow{row}}
	path := filepath.Join(t.TempDir(), "BENCH_solver.json")
	if err := WriteSolverBenchJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back SolverBenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 1 || back.Rows[0].Fixture != "Q2" {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}

// TestWarehouseAuditFixture checks the audit fixture is well-formed: the
// query parses, every atom has statistics, and planning succeeds at k=2.
func TestWarehouseAuditFixture(t *testing.T) {
	q := WarehouseAuditQuery()
	cat := WarehouseAuditCatalog()
	for _, a := range q.Atoms {
		st := cat.Stats(a.Predicate)
		if st == nil {
			t.Fatalf("no stats for %s", a.Predicate)
		}
		if len(st.Distinct) != len(a.Vars) {
			t.Errorf("%s: %d distinct entries for %d vars", a.Predicate, len(st.Distinct), len(a.Vars))
		}
	}
}
