package bench

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

// TestWarmFamilyPlanDeterminism is the determinism oracle for the path a
// plan cache takes on a structure-warm miss: for every benchmark fixture ×
// k, a solve over a shared cost.PlanSearchFamily with a fresh cost model
// must produce the byte-identical decomposition, the bit-identical plan
// cost and identical per-node cost annotations as a from-scratch
// CostKDecomp. Pass 0 solves each width once over the family, so every
// width after the first reuses the components the others interned; pass 1
// re-solves over fully warm contexts. Shared structural caches may only
// change time, never the plan.
func TestWarmFamilyPlanDeterminism(t *testing.T) {
	for _, fx := range solverFixtures() {
		fam, err := cost.NewPlanSearchFamily(fx.q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ests, err := cost.EdgeEstimates(fam.FQ, fx.cat)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, k := range fx.ks {
				name := fmt.Sprintf("%s/k=%d/pass=%d", fx.name, k, pass)
				fresh, freshErr := cost.CostKDecomp(fx.q, fx.cat, k, core.Options{})
				ps, err := fam.At(k)
				if err != nil {
					t.Fatal(err)
				}
				warm, warmErr := ps.Run(cost.NewModelFromEstimates(fam.FQ, ests), core.Options{})
				if (freshErr == nil) != (warmErr == nil) {
					t.Fatalf("%s: feasibility disagrees: %v vs %v", name, freshErr, warmErr)
				}
				if freshErr != nil {
					if !errors.Is(warmErr, core.ErrNoDecomposition) {
						t.Fatalf("%s: %v", name, warmErr)
					}
					continue
				}
				if warm.EstimatedCost != fresh.EstimatedCost {
					t.Errorf("%s: cost %v != fresh %v", name, warm.EstimatedCost, fresh.EstimatedCost)
				}
				if got, want := warm.Decomp.String(), fresh.Decomp.String(); got != want {
					t.Errorf("%s: decomposition differs\nwarm:\n%s\nfresh:\n%s", name, got, want)
				}
				if got, want := warm.FormatAnnotated(), fresh.FormatAnnotated(); got != want {
					t.Errorf("%s: node cost annotations differ\nwarm:\n%s\nfresh:\n%s", name, got, want)
				}
			}
		}
	}
}
