package cost_test

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
)

// TestPlanSearchFamilyConcurrentHammer drives one PlanSearchFamily from 8
// goroutines mixing width bounds and shared and private cost models — the
// family's lazy per-k contexts, the shared StructIndex/solStruct caches,
// and the model's lock-free memo tables all under fire at once. Run with -race (CI does); every plan must match the
// single-threaded reference bit for bit.
func TestPlanSearchFamilyConcurrentHammer(t *testing.T) {
	cat := bench.Fig5StatsCatalog()
	fam, err := cost.NewPlanSearchFamily(cq.Q1(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := cost.EdgeEstimates(fam.FQ, cat)
	if err != nil {
		t.Fatal(err)
	}

	// Single-threaded reference per k, computed on a private family.
	type ref struct {
		cost   float64
		decomp string
	}
	refs := map[int]ref{}
	for k := 2; k <= 3; k++ {
		plan, err := cost.CostKDecomp(cq.Q1(), cat, k, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs[k] = ref{cost: plan.EstimatedCost, decomp: plan.Decomp.String()}
	}

	shared := cost.NewModelFromEstimates(fam.FQ, ests)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := 2 + (g+i)%2
				ps, err := fam.At(k)
				if err != nil {
					errs <- err
					return
				}
				model := shared
				if i%2 == 1 {
					model = cost.NewModelFromEstimates(fam.FQ, ests)
				}
				plan, err := ps.Run(model, core.Options{})
				if err != nil {
					errs <- err
					return
				}
				want := refs[k]
				if plan.EstimatedCost != want.cost || plan.Decomp.String() != want.decomp {
					t.Errorf("goroutine %d k=%d: plan diverged from reference (cost %v vs %v)",
						g, k, plan.EstimatedCost, want.cost)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
