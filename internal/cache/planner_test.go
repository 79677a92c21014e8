package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/hypergraph"
)

// cycleCatalog builds an analyzed catalog for the 4-cycle query
// ans(A,C) :- r(A,B), s(B,C), t(C,D), u(D,A).
func cycleCatalog(t testing.TB, seed int64) *db.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	specs := []db.Spec{
		{Name: "r", Attrs: []string{"a", "b"}, Card: 40, Distinct: map[string]int{"a": 12, "b": 10}},
		{Name: "s", Attrs: []string{"b", "c"}, Card: 35, Distinct: map[string]int{"b": 10, "c": 9}},
		{Name: "t", Attrs: []string{"c", "d"}, Card: 30, Distinct: map[string]int{"c": 9, "d": 8}},
		{Name: "u", Attrs: []string{"d", "a"}, Card: 25, Distinct: map[string]int{"d": 8, "a": 12}},
	}
	cat, err := db.GenerateCatalog(rng, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func cycleQuery(t testing.TB, vars [4]string) *cq.Query {
	t.Helper()
	q, err := cq.Parse(fmt.Sprintf("ans(%s,%s) :- r(%s,%s), s(%s,%s), t(%s,%s), u(%s,%s).",
		vars[0], vars[2], vars[0], vars[1], vars[1], vars[2], vars[2], vars[3], vars[3], vars[0]))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestPlannerMatchesColdPath: a cached plan (first call: cold; second call:
// hit, remapped) must agree with cost.CostKDecomp in estimated cost, width,
// and — decisively — in the relation the engine computes from it.
func TestPlannerMatchesColdPath(t *testing.T) {
	cat := cycleCatalog(t, 1)
	q := cycleQuery(t, [4]string{"A", "B", "C", "D"})
	p := NewPlanner(Options{})

	direct, err := cost.CostKDecomp(q, cat, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // round 0 populates, round 1 hits
		cached, err := p.Plan(q, cat, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cached.EstimatedCost != direct.EstimatedCost {
			t.Fatalf("round %d: estimated cost %v != direct %v", round, cached.EstimatedCost, direct.EstimatedCost)
		}
		if cached.Decomp.Width() != direct.Decomp.Width() {
			t.Fatalf("round %d: width %d != %d", round, cached.Decomp.Width(), direct.Decomp.Width())
		}
		if err := cached.Decomp.Validate(); err != nil {
			t.Fatalf("round %d: invalid decomposition: %v", round, err)
		}
		if !cached.Decomp.IsComplete() {
			t.Fatalf("round %d: decomposition not complete", round)
		}
		got, err := engine.EvalDecomposition(cached.Decomp, cached.Query, cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.EvalNaive(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("round %d: cached plan computed a different relation", round)
		}
	}
	st := p.Stats()
	if st.Plans.Hits != 1 || st.Plans.Misses != 1 || st.Plans.Computations != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 computation", st.Plans)
	}
}

// TestPlannerRenamedQueryHitsAndEvaluates: a variable-renamed copy of a
// cached structure must hit the cache, and the remapped plan must evaluate
// correctly under the *renamed* query's names.
func TestPlannerRenamedQueryHitsAndEvaluates(t *testing.T) {
	cat := cycleCatalog(t, 2)
	p := NewPlanner(Options{})
	if _, err := p.Plan(cycleQuery(t, [4]string{"A", "B", "C", "D"}), cat, 2); err != nil {
		t.Fatal(err)
	}
	renamed := cycleQuery(t, [4]string{"P", "Q", "R", "S"})
	plan, err := p.Plan(renamed, cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Plans.Hits != 1 {
		t.Fatalf("renamed query missed the cache: %+v", st.Plans)
	}
	// The remapped plan must speak the renamed query's variables.
	for _, v := range plan.Query.Out {
		if v != "P" && v != "R" {
			t.Fatalf("remapped Out = %v, want [P R]", plan.Query.Out)
		}
	}
	got, err := engine.EvalDecomposition(plan.Decomp, plan.Query, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvalNaive(renamed, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("remapped plan computed a different relation than naive evaluation")
	}
}

// TestPlannerConcurrentStats: stats must stay exact under concurrent load —
// every call is a hit or a miss, and singleflight collapses the cold
// stampede for one structure into one computation.
func TestPlannerConcurrentStats(t *testing.T) {
	cat := cycleCatalog(t, 3)
	p := NewPlanner(Options{})
	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	costs := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker uses its own variable names: every request is a
			// distinct renaming of the same structure.
			vars := [4]string{
				fmt.Sprintf("A%d", w), fmt.Sprintf("B%d", w),
				fmt.Sprintf("C%d", w), fmt.Sprintf("D%d", w),
			}
			for i := 0; i < iters; i++ {
				plan, err := p.Plan(cycleQuery(t, vars), cat, 2)
				if err != nil {
					t.Error(err)
					return
				}
				costs[w] = plan.EstimatedCost
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	total := st.Plans.Hits + st.Plans.Misses
	if total != workers*iters {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d", st.Plans.Hits, st.Plans.Misses, total, workers*iters)
	}
	if st.Plans.Computations != 1 {
		t.Fatalf("computations = %d, want 1 (singleflight + cache)", st.Plans.Computations)
	}
	if st.Plans.Hits < workers*(iters-1) {
		t.Fatalf("hits = %d, want ≥ %d", st.Plans.Hits, workers*(iters-1))
	}
	for w := 1; w < workers; w++ {
		if costs[w] != costs[0] {
			t.Fatalf("worker %d saw cost %v, worker 0 saw %v", w, costs[w], costs[0])
		}
	}
}

// TestPlannerStatsChangeInvalidates: statistics are part of the key, so
// re-ANALYZE-ing with different data must miss rather than serve stale
// plans.
func TestPlannerStatsChangeInvalidates(t *testing.T) {
	cat := cycleCatalog(t, 4)
	p := NewPlanner(Options{})
	q := cycleQuery(t, [4]string{"A", "B", "C", "D"})
	if _, err := p.Plan(q, cat, 2); err != nil {
		t.Fatal(err)
	}
	// Replace r with a much larger relation and re-analyze.
	rng := rand.New(rand.NewSource(99))
	bigger, err := db.Generate(rng, db.Spec{Name: "r", Attrs: []string{"a", "b"}, Card: 400,
		Distinct: map[string]int{"a": 120, "b": 100}})
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(bigger)
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(q, cat, 2); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Plans.Misses != 2 || st.Plans.Hits != 0 {
		t.Fatalf("stats after stats-change = %+v, want 2 misses / 0 hits", st.Plans)
	}
	// The structural search context is shared between the two misses.
	if st.Searches.Computations != 1 {
		t.Fatalf("search contexts built = %d, want 1 (reused across catalogs)", st.Searches.Computations)
	}
}

// TestPlannerDecomposeCachedAndRemapped: Decompose must hit for renamed
// hypergraphs and return decompositions valid for the caller's hypergraph.
func TestPlannerDecomposeCachedAndRemapped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPlanner(Options{})
	h := hypergraph.Cycle(6)
	d1, err := p.Decompose(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Validate(); err != nil {
		t.Fatal(err)
	}
	if d1.Width() > 2 {
		t.Fatalf("width %d > 2", d1.Width())
	}
	for trial := 0; trial < 3; trial++ {
		h2 := renameHypergraph(rng, h)
		d2, err := p.Decompose(h2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d2.H != h2 {
			t.Fatal("remapped decomposition does not reference the caller's hypergraph")
		}
		if err := d2.Validate(); err != nil {
			t.Fatalf("trial %d: remapped decomposition invalid: %v", trial, err)
		}
		if d2.Width() > 2 {
			t.Fatalf("trial %d: width %d > 2", trial, d2.Width())
		}
	}
	st := p.Stats()
	if st.Decompositions.Hits != 3 || st.Decompositions.Computations != 1 {
		t.Fatalf("decompose stats = %+v, want 3 hits / 1 computation", st.Decompositions)
	}
}

// TestPlannerNoDecomposition: infeasible widths surface the usual error and
// are not cached as successes.
func TestPlannerNoDecomposition(t *testing.T) {
	p := NewPlanner(Options{})
	h := hypergraph.Clique(6) // hw 3 as a graph; width 1 is infeasible
	if _, err := p.Decompose(h, 1); err == nil {
		t.Fatal("want ErrNoDecomposition")
	}
	if st := p.Stats(); st.Decompositions.Entries != 0 {
		t.Fatalf("failure was cached: %+v", st.Decompositions)
	}
}

// TestPlannerEviction: a capacity-bounded planner evicts and counts it.
func TestPlannerEviction(t *testing.T) {
	cat := cycleCatalog(t, 6)
	p := NewPlanner(Options{Capacity: 2, Shards: 1})
	// Three structurally different queries over subsets of the catalog.
	queries := []string{
		"ans(A) :- r(A,B), s(B,C).",
		"ans(A) :- r(A,B), t(B,C).",
		"ans(A) :- r(A,B), u(B,C).",
	}
	for _, s := range queries {
		q, err := cq.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(q, cat, 2); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Plans.Evictions == 0 {
		t.Fatalf("no evictions at capacity 2 after 3 inserts: %+v", st.Plans)
	}
	if st.Plans.Entries > 2 {
		t.Fatalf("entries = %d exceeds capacity 2", st.Plans.Entries)
	}
}

// TestPlannerKeySeparatesK: the same structure at different k is a
// different cache entry (different optimum).
func TestPlannerKeySeparatesK(t *testing.T) {
	cat := cycleCatalog(t, 7)
	p := NewPlanner(Options{})
	q := cycleQuery(t, [4]string{"A", "B", "C", "D"})
	p2, err := p.Plan(q, cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := p.Plan(q, cat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Plans.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (k participates in the key)", st.Plans.Misses)
	}
	if p3.EstimatedCost > p2.EstimatedCost {
		t.Fatalf("k=3 cost %v worse than k=2 cost %v", p3.EstimatedCost, p2.EstimatedCost)
	}
}

// TestPlannerDuplicatePredicateFallback: non-canonicalizable queries take
// the uncached path and surface the planner's usual error.
func TestPlannerDuplicatePredicateFallback(t *testing.T) {
	cat := cycleCatalog(t, 8)
	p := NewPlanner(Options{})
	q := &cq.Query{Head: "ans", Atoms: []cq.Atom{
		{Predicate: "r", Vars: []string{"X", "Y"}},
		{Predicate: "r", Vars: []string{"Y", "Z"}},
	}}
	_, err := p.Plan(q, cat, 2)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate-edge error from the direct path", err)
	}
}

// TestPlannerSearchFamilySharedAcrossK: planning one structure at two width
// bounds builds one search family (one augmentation + StructIndex), not two
// independent PlanSearch contexts.
func TestPlannerSearchFamilySharedAcrossK(t *testing.T) {
	cat := cycleCatalog(t, 9)
	p := NewPlanner(Options{})
	q := cycleQuery(t, [4]string{"A", "B", "C", "D"})
	if _, err := p.Plan(q, cat, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(q, cat, 3); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Searches.Computations != 1 {
		t.Errorf("search family computations = %d, want 1 (shared across k)", st.Searches.Computations)
	}
	if st.Plans.Computations != 2 {
		t.Errorf("plan computations = %d, want 2 (one per k)", st.Plans.Computations)
	}
}
