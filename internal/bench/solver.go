package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
)

// Solver benchmark: the machine-readable perf trajectory of the
// candidate-graph hot path (BENCH_solver.json). Each row measures one
// fixture query at one width bound: cold planning (CostKDecomp from
// scratch — augmentation, k-vertex enumeration, structural discovery, cost
// evaluation), warm planning (MinimalKCtx over a prepared SearchContext
// with populated structural caches), and the candidate-graph size the
// solver explored (Theorem 4.5's quantities). CI runs this on every push
// and uploads the artifact, so regressions in ns/op or allocs/op are
// visible across the commit history.

// SolverBenchRow is one (fixture, k) measurement.
type SolverBenchRow struct {
	Fixture string `json:"fixture"`
	K       int    `json:"k"`
	// Feasible is false when the fixture has no width-k NF decomposition;
	// timings then measure the cost of discovering infeasibility.
	Feasible      bool    `json:"feasible"`
	EstimatedCost float64 `json:"estimated_cost,omitempty"`

	ColdNsPerOp     int64 `json:"cold_ns_per_op"`
	ColdAllocsPerOp int64 `json:"cold_allocs_per_op"`
	ColdBytesPerOp  int64 `json:"cold_bytes_per_op"`
	WarmNsPerOp     int64 `json:"warm_ns_per_op"`
	WarmAllocsPerOp int64 `json:"warm_allocs_per_op"`
	WarmBytesPerOp  int64 `json:"warm_bytes_per_op"`

	Psi         int `json:"psi"`         // Ψ, k-vertices enumerated
	Components  int `json:"components"`  // distinct components interned
	Solutions   int `json:"solutions"`   // solution nodes materialized
	Subproblems int `json:"subproblems"` // subproblem nodes materialized
}

// SolverBenchReport is the BENCH_solver.json document.
type SolverBenchReport struct {
	Schema string           `json:"schema"` // bumped when row fields change
	Rows   []SolverBenchRow `json:"rows"`
}

// solverFixture is one benchmark workload: a query plus a stats catalog.
type solverFixture struct {
	name string
	q    *cq.Query
	cat  *db.Catalog
	ks   []int
}

// WarehouseAuditQuery returns the cross-source consistency audit of
// examples/warehouse: structurally the paper's Q1 under a data-warehouse
// schema (cyclic, low-selectivity m:n joins).
func WarehouseAuditQuery() *cq.Query {
	return cq.MustParse(`audit :-
		orders(Src, Ox, Rx, Cc, Fc),
		invoices(Src, Oy, Ry, Cd, Fd),
		recon(Cc, Cd, Batch),
		ship_x(Ox, Batch),
		ship_y(Oy, Batch),
		pay(Fc, Fd, Window),
		route_x(Rx, Window),
		route_y(Ry, Window),
		links(Ledger, Ox, Oy, Rx, Ry)`)
}

// WarehouseAuditCatalog returns a stats-only catalog for the audit query:
// the Fig 5 statistics at 40% scale, renamed positionally onto the audit
// schema (the audit atoms are listed in Q1's atom order, so attribute i of
// Fig 5 relation i maps to variable i of audit atom i).
func WarehouseAuditCatalog() *db.Catalog {
	specs := ScaleSpecs(Fig5Specs(), 0.4)
	q := WarehouseAuditQuery()
	cat := db.NewCatalog()
	for i, s := range specs {
		atom := q.Atoms[i]
		st := &db.TableStats{Card: s.Card, Distinct: map[string]int{}}
		for j, a := range s.Attrs {
			st.Distinct[atom.Vars[j]] = s.Distinct[a]
		}
		cat.SetStats(atom.Predicate, st)
	}
	return cat
}

// solverFixtures returns the benchmark corpus: Q1 over the published Fig 5
// statistics, Q2/Q3 over their synthetic workloads (statistics only; no
// tuples are generated), and the warehouse audit fixture.
func solverFixtures() []solverFixture {
	statsOnly := func(specs []db.Spec) *db.Catalog {
		cat := db.NewCatalog()
		for _, s := range specs {
			st := &db.TableStats{Card: s.Card, Distinct: map[string]int{}}
			for a, d := range s.Distinct {
				st.Distinct[a] = d
			}
			cat.SetStats(s.Name, st)
		}
		return cat
	}
	return []solverFixture{
		{name: "Q1-fig5", q: cq.Q1(), cat: Fig5StatsCatalog(), ks: []int{2, 3, 4}},
		{name: "Q2", q: cq.Q2(), cat: statsOnly(Q2Specs(1500)), ks: []int{2, 3}},
		{name: "Q3", q: cq.Q3(), cat: statsOnly(Q3Specs(1500)), ks: []int{2, 3}},
		{name: "warehouse-audit", q: WarehouseAuditQuery(), cat: WarehouseAuditCatalog(), ks: []int{2, 3, 4}},
	}
}

// RunSolverBench measures every fixture × k and returns the report.
func RunSolverBench() (*SolverBenchReport, error) {
	rep := &SolverBenchReport{Schema: "solver-bench/3"}
	for _, fx := range solverFixtures() {
		for _, k := range fx.ks {
			row, err := runSolverRow(fx, k)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", fx.name, k, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func runSolverRow(fx solverFixture, k int) (SolverBenchRow, error) {
	row := SolverBenchRow{Fixture: fx.name, K: k}

	// Candidate-graph statistics and feasibility (one instrumented solve).
	ps, err := cost.NewPlanSearch(fx.q, k, core.Options{})
	if err != nil {
		return row, err
	}
	model, err := cost.NewModel(ps.FQ, fx.cat)
	if err != nil {
		return row, err
	}
	res, st, err := core.MinimalKWithStats(ps.H, k, model.TAF(), core.Options{})
	switch {
	case errors.Is(err, core.ErrNoDecomposition):
	case err != nil:
		return row, err
	default:
		row.Feasible = true
		row.EstimatedCost = res.Weight
	}
	row.Psi = st.KVertices
	row.Components = st.Components
	row.Solutions = st.Solutions
	row.Subproblems = st.Subproblems

	// Cold: the full plan path per op, as a service cold miss pays it.
	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := cost.CostKDecomp(fx.q, fx.cat, k, core.Options{})
			if err != nil && !errors.Is(err, core.ErrNoDecomposition) {
				b.Fatal(err)
			}
		}
	})
	row.ColdNsPerOp = cold.NsPerOp()
	row.ColdAllocsPerOp = cold.AllocsPerOp()
	row.ColdBytesPerOp = cold.AllocedBytesPerOp()

	// Warm: repeat solves over one SearchContext and one cost model, i.e.
	// the steady state of a plan service re-planning a known structure.
	warm := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := core.MinimalKCtx(ps.SC, model.TAF(), core.Options{})
			if err != nil && !errors.Is(err, core.ErrNoDecomposition) {
				b.Fatal(err)
			}
		}
	})
	row.WarmNsPerOp = warm.NsPerOp()
	row.WarmAllocsPerOp = warm.AllocsPerOp()
	row.WarmBytesPerOp = warm.AllocedBytesPerOp()
	return row, nil
}

// WriteSolverBenchJSON writes the report to path (pretty-printed, stable
// field order) for CI artifact upload.
func WriteSolverBenchJSON(path string, rep *SolverBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatSolverBench renders the report as a console table.
func FormatSolverBench(rep *SolverBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %2s %5s %10s %12s %10s %12s %6s %6s %6s %6s\n",
		"fixture", "k", "feas", "cold ns", "cold allocs", "warm ns", "warm allocs", "Ψ", "comps", "sols", "subs")
	for _, r := range rep.Rows {
		feas := "yes"
		if !r.Feasible {
			feas = "no"
		}
		fmt.Fprintf(&b, "%-16s %2d %5s %10d %12d %10d %12d %6d %6d %6d %6d\n",
			r.Fixture, r.K, feas, r.ColdNsPerOp, r.ColdAllocsPerOp,
			r.WarmNsPerOp, r.WarmAllocsPerOp, r.Psi, r.Components, r.Solutions, r.Subproblems)
	}
	return b.String()
}
