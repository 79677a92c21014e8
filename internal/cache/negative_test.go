package cache

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
)

// The 4-cycle query is cyclic, so no width-1 decomposition exists: planning
// at k=1 must fail with ErrNoDecomposition, and the second request must be
// answered from the negative cache without a new search.
func TestNegativeCachePlan(t *testing.T) {
	cat := cycleCatalog(t, 1)
	p := NewPlanner(Options{})

	for round := 0; round < 3; round++ {
		q := cycleQuery(t, [4]string{"A", "B", "C", "D"})
		if round == 2 {
			q = cycleQuery(t, [4]string{"W", "X", "Y", "Z"}) // renamed: same structure
		}
		plan, hit, err := p.PlanCached(q, cat, 1)
		if !errors.Is(err, core.ErrNoDecomposition) {
			t.Fatalf("round %d: want ErrNoDecomposition, got plan=%v err=%v", round, plan, err)
		}
		if wantHit := round > 0; hit != wantHit {
			t.Fatalf("round %d: hit=%v, want %v", round, hit, wantHit)
		}
	}
	st := p.Stats()
	if st.Infeasible.Computations != 1 {
		t.Fatalf("infeasible computations = %d, want 1", st.Infeasible.Computations)
	}
	if st.Infeasible.Hits != 2 {
		t.Fatalf("infeasible hits = %d, want 2", st.Infeasible.Hits)
	}
	if st.Plans.Computations != 1 {
		t.Fatalf("plan computations = %d, want 1 (negative hits must not re-search)", st.Plans.Computations)
	}

	// The negative entry must not poison feasible widths.
	if _, _, err := p.PlanCached(cycleQuery(t, [4]string{"A", "B", "C", "D"}), cat, 2); err != nil {
		t.Fatalf("k=2 after negative k=1: %v", err)
	}
}

func TestNegativeCacheDecompose(t *testing.T) {
	h, err := hypergraph.Parse("e1(A,B)\ne2(B,C)\ne3(C,A)\n")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(Options{})
	for round := 0; round < 2; round++ {
		_, hit, err := p.DecomposeCached(h, 1)
		if !errors.Is(err, core.ErrNoDecomposition) {
			t.Fatalf("round %d: want ErrNoDecomposition, got %v", round, err)
		}
		if wantHit := round > 0; hit != wantHit {
			t.Fatalf("round %d: hit=%v, want %v", round, hit, wantHit)
		}
	}
	st := p.Stats()
	if st.Infeasible.Computations != 1 || st.Infeasible.Hits != 1 {
		t.Fatalf("infeasible counters = %+v, want 1 computation, 1 hit", st.Infeasible)
	}
	if st.Decompositions.Computations != 1 {
		t.Fatalf("decomposition computations = %d, want 1", st.Decompositions.Computations)
	}
}

func TestPlannerSetSharedCoalesces(t *testing.T) {
	set := NewPlannerSet(Options{}, false)
	if set.For("alice") != set.For("bob") {
		t.Fatal("shared mode must hand every tenant the same Planner")
	}
	cat := cycleCatalog(t, 1)
	if _, _, err := set.For("alice").PlanCached(cycleQuery(t, [4]string{"A", "B", "C", "D"}), cat, 2); err != nil {
		t.Fatal(err)
	}
	_, hit, err := set.For("bob").PlanCached(cycleQuery(t, [4]string{"W", "X", "Y", "Z"}), cat, 2)
	if err != nil || !hit {
		t.Fatalf("cross-tenant structurally identical query: hit=%v err=%v", hit, err)
	}
	if got := set.Aggregate().Plans.Computations; got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
}

func TestPlannerSetIsolated(t *testing.T) {
	set := NewPlannerSet(Options{}, true)
	if set.For("alice") == set.For("bob") {
		t.Fatal("isolated mode must hand tenants distinct Planners")
	}
	if set.For("alice") != set.For("alice") {
		t.Fatal("per-tenant Planner must be stable")
	}
	cat := cycleCatalog(t, 1)
	for _, tenant := range []string{"alice", "bob"} {
		if _, _, err := set.For(tenant).PlanCached(cycleQuery(t, [4]string{"A", "B", "C", "D"}), cat, 2); err != nil {
			t.Fatal(err)
		}
	}
	by := set.StatsByTenant()
	if len(by) != 2 || by["alice"].Plans.Computations != 1 || by["bob"].Plans.Computations != 1 {
		t.Fatalf("per-tenant stats = %+v, want one computation each", by)
	}
	if agg := set.Aggregate(); agg.Plans.Computations != 2 {
		t.Fatalf("aggregate computations = %d, want 2 (no cross-tenant sharing)", agg.Plans.Computations)
	}
	if got := set.Tenants(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("tenants = %v", got)
	}
}

// Concurrent For calls in isolated mode must race-safely intern one Planner
// per tenant.
func TestPlannerSetConcurrentFor(t *testing.T) {
	set := NewPlannerSet(Options{}, true)
	const goroutines = 16
	planners := make([]*Planner, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			planners[i] = set.For("tenant")
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if planners[i] != planners[0] {
			t.Fatal("concurrent For returned distinct Planners for one tenant")
		}
	}
}
