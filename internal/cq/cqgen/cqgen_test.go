package cqgen

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
)

// testConfigs is the mixed workload the property suites draw from: acyclic
// and cyclic shapes, with and without self-joins.
var testConfigs = []Config{
	{Atoms: 3, SelfJoin: 0.0},
	{Atoms: 4, SelfJoin: 0.5},
	{Atoms: 4, SelfJoin: 0.8, Cyclic: true},
	{Atoms: 5, SelfJoin: 0.6, Cyclic: true, VarReuse: 0.5},
	{Atoms: 5, SelfJoin: 0.9, MaxArity: 2, Cyclic: true, VarReuse: 0.6, MaxOut: -1},
}

// instances deterministically generates n instances cycling through
// testConfigs.
func instances(t *testing.T, seed int64, n int) []*Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Instance, 0, n)
	for i := 0; i < n; i++ {
		inst, err := Generate(rng, testConfigs[i%len(testConfigs)])
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		out = append(out, inst)
	}
	return out
}

func TestGeneratorProducesValidConnectedQueries(t *testing.T) {
	selfJoins := 0
	for i, inst := range instances(t, 1, 100) {
		q := inst.Query
		if err := q.Validate(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		h, err := q.Hypergraph()
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		// [∅]-components are plain connected components.
		if got := len(h.Components(h.NewVarset())); got != 1 {
			t.Errorf("instance %d: %d connected components, want 1 (%s)", i, got, q)
		}
		// Every atom binds: positional bijection against its base relation.
		if _, err := engine.BindAtoms(q, inst.Catalog); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
		if inst.HasSelfJoin() {
			selfJoins++
		}
	}
	if selfJoins < 20 {
		t.Errorf("only %d/100 instances contain self-joins; generator knob broken?", selfJoins)
	}
}

// TestSelfJoinCopyOracle is differential property (a): an aliased self-join
// must plan — decomposition, node costs, total cost — and evaluate exactly
// like the oracle that physically copies the base relation under each alias
// name. Infeasibility must agree too.
func TestSelfJoinCopyOracle(t *testing.T) {
	checked := 0
	for i, inst := range instances(t, 2, 120) {
		if !inst.HasSelfJoin() {
			continue
		}
		oq, ocat, err := inst.CopyOracle()
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		for k := 2; k <= 3; k++ {
			plan, err := cost.CostKDecomp(inst.Query, inst.Catalog, k, core.Options{})
			oplan, oerr := cost.CostKDecomp(oq, ocat, k, core.Options{})
			if (err == nil) != (oerr == nil) {
				t.Fatalf("instance %d k=%d: aliased err=%v, oracle err=%v (%s)", i, k, err, oerr, inst.Query)
			}
			if err != nil {
				if !errors.Is(err, core.ErrNoDecomposition) {
					t.Fatalf("instance %d k=%d: %v", i, k, err)
				}
				continue
			}
			if plan.EstimatedCost != oplan.EstimatedCost {
				t.Fatalf("instance %d k=%d: cost %v != oracle %v (%s)",
					i, k, plan.EstimatedCost, oplan.EstimatedCost, inst.Query)
			}
			if got, want := plan.FormatAnnotated(), oplan.FormatAnnotated(); got != want {
				t.Fatalf("instance %d k=%d: decomposition differs from oracle\naliased:\n%s\noracle:\n%s",
					i, k, got, want)
			}
			rows, err := engine.EvalDecomposition(plan.Decomp, plan.Query, inst.Catalog, nil)
			if err != nil {
				t.Fatalf("instance %d k=%d: eval: %v", i, k, err)
			}
			orows, err := engine.EvalDecomposition(oplan.Decomp, oplan.Query, ocat, nil)
			if err != nil {
				t.Fatalf("instance %d k=%d: oracle eval: %v", i, k, err)
			}
			if !rows.Equal(orows) {
				t.Fatalf("instance %d k=%d: rows differ from copy oracle (%s)", i, k, inst.Query)
			}
			naive, err := engine.EvalNaive(inst.Query, inst.Catalog)
			if err != nil {
				t.Fatalf("instance %d k=%d: naive: %v", i, k, err)
			}
			if !rows.Equal(naive) {
				t.Fatalf("instance %d k=%d: self-join plan disagrees with naive evaluation (%s)", i, k, inst.Query)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Errorf("only %d (instance, k) pairs checked; corpus too infeasible?", checked)
	}
}

// TestGeneratedWarmFamilyPlanDeterminism is differential property (b):
// over 200 generated queries, a k=2 solve over a shared, warm
// cost.PlanSearchFamily with a fresh cost model — the path a plan cache
// takes on a structure-warm miss — returns the byte-identical plan and
// bit-identical cost of a from-scratch CostKDecomp. The family is warmed
// by a k=3 solve (sharing its component table) and a first k=2 solve
// (filling the width's structural caches).
func TestGeneratedWarmFamilyPlanDeterminism(t *testing.T) {
	const k = 2
	planned := 0
	for i, inst := range instances(t, 3, 200) {
		fresh, err := cost.CostKDecomp(inst.Query, inst.Catalog, k, core.Options{})
		if errors.Is(err, core.ErrNoDecomposition) {
			continue
		}
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		fam, err := cost.NewPlanSearchFamily(inst.Query, core.Options{})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		ests, err := cost.EdgeEstimates(fam.FQ, inst.Catalog)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		for _, wk := range []int{k + 1, k} {
			ps, err := fam.At(wk)
			if err != nil {
				t.Fatalf("instance %d k=%d: %v", i, wk, err)
			}
			if _, err := ps.Run(cost.NewModelFromEstimates(fam.FQ, ests), core.Options{}); err != nil &&
				!errors.Is(err, core.ErrNoDecomposition) {
				t.Fatalf("instance %d k=%d: warm-up: %v", i, wk, err)
			}
		}
		ps, err := fam.At(k)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		warm, err := ps.Run(cost.NewModelFromEstimates(fam.FQ, ests), core.Options{})
		if err != nil {
			t.Fatalf("instance %d: warm: %v", i, err)
		}
		if warm.EstimatedCost != fresh.EstimatedCost {
			t.Fatalf("instance %d: warm cost %v != fresh %v (%s)",
				i, warm.EstimatedCost, fresh.EstimatedCost, inst.Query)
		}
		if got, want := warm.FormatAnnotated(), fresh.FormatAnnotated(); got != want {
			t.Fatalf("instance %d: warm plan differs from fresh\n%s\nvs\n%s", i, got, want)
		}
		planned++
	}
	if planned < 100 {
		t.Errorf("only %d/200 queries planned at k=%d; corpus too infeasible?", planned, k)
	}
}

// TestGeneratedCanonicalizationHit is differential property (c): every
// generated query, re-planned under fresh variable and alias names (and
// reversed atom order), is a plan-cache hit.
func TestGeneratedCanonicalizationHit(t *testing.T) {
	p := cache.NewPlanner(cache.Options{Capacity: 4096})
	const k = 2
	hits := 0
	for i, inst := range instances(t, 4, 200) {
		base, _, err := p.PlanCached(inst.Query, inst.Catalog, k)
		if errors.Is(err, core.ErrNoDecomposition) {
			continue
		}
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		renamed := Renamed(inst.Query, fmt.Sprintf("x%d", i))
		if err := renamed.Validate(); err != nil {
			t.Fatalf("instance %d: renamed query invalid: %v", i, err)
		}
		plan, hit, err := p.PlanCached(renamed, inst.Catalog, k)
		if err != nil {
			t.Fatalf("instance %d: renamed: %v", i, err)
		}
		if !hit {
			t.Fatalf("instance %d: renamed variant missed the cache\nbase:    %s\nrenamed: %s",
				i, inst.Query, renamed)
		}
		if plan.EstimatedCost != base.EstimatedCost {
			t.Fatalf("instance %d: remapped cost %v != base %v", i, plan.EstimatedCost, base.EstimatedCost)
		}
		// The remapped plan must evaluate correctly under the renamed names.
		rows, err := engine.EvalDecomposition(plan.Decomp, plan.Query, inst.Catalog, nil)
		if err != nil {
			t.Fatalf("instance %d: eval remapped: %v", i, err)
		}
		naive, err := engine.EvalNaive(renamed, inst.Catalog)
		if err != nil {
			t.Fatalf("instance %d: naive: %v", i, err)
		}
		if !rows.Equal(naive) {
			t.Fatalf("instance %d: remapped plan wrong answer (%s)", i, renamed)
		}
		hits++
	}
	if hits < 100 {
		t.Errorf("only %d/200 renamed variants verified; corpus too infeasible?", hits)
	}
}
