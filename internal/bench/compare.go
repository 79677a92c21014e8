package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Bench-regression comparison: the CI gate that diffs the current commit's
// BENCH_solver.json against the parent commit's artifact and fails the
// build when a fixture × k cell got more than tolerance slower, cold or
// warm. The perf trajectory stops being an archive nobody reads and becomes
// an enforced floor.

// storedRow is a row as read back from an artifact. Reports before
// solver-bench/3 also hold rows measured with the deleted level-parallel
// solver, told apart by a workers field > 1; solver-bench/1 rows carry no
// workers field and decode as 0 — like workers = 1, a sequential solve.
type storedRow struct {
	SolverBenchRow
	Workers int `json:"workers"`
}

// readSolverBenchJSON loads a report written by WriteSolverBenchJSON. The
// sequential rows form the report; rows measured with workers > 1 are
// returned apart, so the sequential head is never judged against them.
func readSolverBenchJSON(path string) (*SolverBenchReport, []storedRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var stored struct {
		Schema string      `json:"schema"`
		Rows   []storedRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &stored); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	rep := &SolverBenchReport{Schema: stored.Schema}
	var parallel []storedRow
	for _, r := range stored.Rows {
		if r.Workers > 1 {
			parallel = append(parallel, r)
			continue
		}
		rep.Rows = append(rep.Rows, r.SolverBenchRow)
	}
	return rep, parallel, nil
}

// benchCellKey identifies one measured cell across two reports.
type benchCellKey struct {
	Fixture string
	K       int
}

// CompareSolverBench diffs head against base cell by cell and returns a
// readable table plus whether any cold or warm ns/op regressed by more than
// tolerance (0.20 = fail beyond +20%). Cells present in only one report are
// listed but never fail the comparison — fixtures may legitimately come and
// go between commits.
func CompareSolverBench(base, head *SolverBenchReport, tolerance float64) (string, bool) {
	baseBy := make(map[benchCellKey]SolverBenchRow, len(base.Rows))
	for _, r := range base.Rows {
		baseBy[cellKey(r)] = r
	}
	headKeys := make(map[benchCellKey]bool, len(head.Rows))

	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %2s %12s %12s %8s %12s %12s %8s  %s\n",
		"fixture", "k", "base cold", "head cold", "Δcold", "base warm", "head warm", "Δwarm", "verdict")
	regressed := false
	for _, h := range head.Rows {
		headKeys[cellKey(h)] = true
		base, ok := baseBy[cellKey(h)]
		if !ok {
			fmt.Fprintf(&b, "%-16s %2d %12s %12d %8s %12s %12d %8s  new cell\n",
				h.Fixture, h.K, "-", h.ColdNsPerOp, "-", "-", h.WarmNsPerOp, "-")
			continue
		}
		coldDelta := ratio(h.ColdNsPerOp, base.ColdNsPerOp)
		warmDelta := ratio(h.WarmNsPerOp, base.WarmNsPerOp)
		verdict := "ok"
		if coldDelta > tolerance || warmDelta > tolerance {
			verdict = fmt.Sprintf("REGRESSED (>+%.0f%%)", tolerance*100)
			regressed = true
		}
		fmt.Fprintf(&b, "%-16s %2d %12d %12d %+7.1f%% %12d %12d %+7.1f%%  %s\n",
			h.Fixture, h.K, base.ColdNsPerOp, h.ColdNsPerOp, coldDelta*100,
			base.WarmNsPerOp, h.WarmNsPerOp, warmDelta*100, verdict)
	}
	var dropped []benchCellKey
	for key := range baseBy {
		if !headKeys[key] {
			dropped = append(dropped, key)
		}
	}
	sort.Slice(dropped, func(i, j int) bool {
		a, c := dropped[i], dropped[j]
		if a.Fixture != c.Fixture {
			return a.Fixture < c.Fixture
		}
		return a.K < c.K
	})
	for _, key := range dropped {
		fmt.Fprintf(&b, "%-16s %2d  dropped (present in base only)\n", key.Fixture, key.K)
	}
	return b.String(), regressed
}

func cellKey(r SolverBenchRow) benchCellKey {
	return benchCellKey{Fixture: r.Fixture, K: r.K}
}

// ratio returns (head − base) / base, treating a missing base measurement
// as no change (feasibility discovery can be too fast to time).
func ratio(head, base int64) float64 {
	if base <= 0 {
		return 0
	}
	return float64(head-base) / float64(base)
}

// CompareSolverBenchFiles is the benchrun -compare entry point: load both
// artifacts, print the table, and report regression as a non-nil error so
// the command exits non-zero.
func CompareSolverBenchFiles(basePath, headPath string, tolerance float64) (string, error) {
	base, parallel, err := readSolverBenchJSON(basePath)
	if err != nil {
		return "", err
	}
	head, _, err := readSolverBenchJSON(headPath)
	if err != nil {
		return "", err
	}
	table, regressed := CompareSolverBench(base, head, tolerance)
	for _, r := range parallel {
		table += fmt.Sprintf("%-16s %2d  dropped (workers=%d: level-parallel solver, not compared)\n",
			r.Fixture, r.K, r.Workers)
	}
	if regressed {
		return table, fmt.Errorf("bench: ns/op regression beyond %.0f%% tolerance (%s vs %s)",
			tolerance*100, headPath, basePath)
	}
	return table, nil
}
