// Package bench implements the experiment harness: workload builders
// matching the paper's Section 6 setup (the Fig 5 statistics for Q1, random
// 1500-tuple databases for Q2 and Q3) and runners that regenerate every
// table and figure of the evaluation (README's "Paper section → package
// map").
package bench

import (
	"math/rand"

	"repro/internal/db"
)

// Fig5Specs returns the paper's Fig 5 statistics for query Q1 as generator
// specs: per relation, the cardinality and per-attribute selectivity
// (number of distinct values). Attribute names equal the query variables.
// Note: the paper's table header for atom c prints Z′, but the atom is
// c(C,C′,Z); the variable is Z.
func Fig5Specs() []db.Spec {
	return []db.Spec{
		{Name: "a", Attrs: []string{"S", "X", "X'", "C", "F"}, Card: 4606,
			Distinct: map[string]int{"S": 14, "X": 24, "X'": 16, "C": 21, "F": 15}},
		{Name: "b", Attrs: []string{"S", "Y", "Y'", "C'", "F'"}, Card: 2808,
			Distinct: map[string]int{"S": 17, "Y": 5, "Y'": 12, "C'": 20, "F'": 7}},
		{Name: "c", Attrs: []string{"C", "C'", "Z"}, Card: 1748,
			Distinct: map[string]int{"C": 18, "C'": 7, "Z": 19}},
		{Name: "d", Attrs: []string{"X", "Z"}, Card: 3756,
			Distinct: map[string]int{"X": 18, "Z": 7}},
		{Name: "e", Attrs: []string{"Y", "Z"}, Card: 3554,
			Distinct: map[string]int{"Y": 21, "Z": 13}},
		{Name: "f", Attrs: []string{"F", "F'", "Z'"}, Card: 2892,
			Distinct: map[string]int{"F": 20, "F'": 7, "Z'": 6}},
		{Name: "g", Attrs: []string{"X'", "Z'"}, Card: 4573,
			Distinct: map[string]int{"X'": 22, "Z'": 16}},
		{Name: "h", Attrs: []string{"Y'", "Z'"}, Card: 3390,
			Distinct: map[string]int{"Y'": 15, "Z'": 12}},
		{Name: "j", Attrs: []string{"J", "X", "Y", "X'", "Y'"}, Card: 4234,
			Distinct: map[string]int{"J": 18, "X": 8, "Y": 18, "X'": 22, "Y'": 10}},
	}
}

// ScaleSpecs shrinks (or grows) the cardinalities of specs by factor,
// clamping distinct counts at the new cardinality. Used to run the Fig 8
// timing experiments at the paper's "database of 1500 tuples" scale and the
// unit tests at toy scale.
func ScaleSpecs(specs []db.Spec, factor float64) []db.Spec {
	out := make([]db.Spec, len(specs))
	for i, s := range specs {
		card := int(float64(s.Card) * factor)
		if card < 1 {
			card = 1
		}
		dist := make(map[string]int, len(s.Distinct))
		for a, d := range s.Distinct {
			if d > card {
				d = card
			}
			dist[a] = d
		}
		out[i] = db.Spec{Name: s.Name, Attrs: s.Attrs, Card: card, Distinct: dist}
	}
	return out
}

// Fig5StatsCatalog returns a stats-only catalog carrying exactly the
// published Fig 5 numbers (no tuples). The cost-model experiments (Figs 6
// and 7) run the planner against these statistics, independent of any
// generated data.
func Fig5StatsCatalog() *db.Catalog {
	cat := db.NewCatalog()
	for _, s := range Fig5Specs() {
		st := &db.TableStats{Card: s.Card, Distinct: map[string]int{}}
		for a, d := range s.Distinct {
			st.Distinct[a] = d
		}
		cat.SetStats(s.Name, st)
	}
	return cat
}

// BuildQ1Catalog generates and analyzes a database for Q1 whose statistics
// match Fig 5 scaled by factor (1.0 = the paper's cardinalities).
func BuildQ1Catalog(rng *rand.Rand, factor float64) (*db.Catalog, error) {
	return db.GenerateCatalog(rng, ScaleSpecs(Fig5Specs(), factor))
}

// Q2Specs returns a synthetic workload for Q2 (8 atoms, 9 variables): the
// paper used randomly generated data over 1500-tuple relations. Domains are
// card/50 per variable (≈30 at full scale), in the small-selectivity regime
// of Fig 5: single-variable joins blow up intermediates while the frequent
// two-variable joins shrink them, so left-deep orders must pass through
// large intermediates but the Boolean answer is cheap to certify.
func Q2Specs(card int) []db.Spec {
	mk := func(name string, vars []string) db.Spec {
		dist := map[string]int{}
		for _, v := range vars {
			// Floor of 12 keeps scaled-down runs non-degenerate (tiny
			// domains make every join a near cross product).
			dist[v] = clampDistinct(max(12, card/50), card)
		}
		return db.Spec{Name: name, Attrs: vars, Card: card, Distinct: dist}
	}
	return []db.Spec{
		mk("r1", []string{"A", "B", "C"}),
		mk("r2", []string{"C", "D", "E"}),
		mk("r3", []string{"E", "F", "G"}),
		mk("r4", []string{"G", "H", "A"}),
		mk("r5", []string{"B", "F"}),
		mk("r6", []string{"D", "H"}),
		mk("r7", []string{"A", "E", "I"}),
		mk("r8", []string{"C", "G", "I"}),
	}
}

// Q3Specs returns a synthetic workload for Q3 (9 atoms, 12 variables,
// 4 output variables). Q3 is isomorphic to Q1, so its workload mirrors the
// Fig 5 selectivity regime (small per-attribute domains independent of
// cardinality), scaled to the requested per-relation cardinality.
func Q3Specs(card int) []db.Spec {
	mk := func(name string, vars []string, ds []int) db.Spec {
		dist := map[string]int{}
		for i, v := range vars {
			dist[v] = clampDistinct(ds[i], card)
		}
		return db.Spec{Name: name, Attrs: vars, Card: card, Distinct: dist}
	}
	return []db.Spec{
		mk("t1", []string{"A", "X", "P", "C", "F"}, []int{14, 24, 16, 21, 15}),
		mk("t2", []string{"A", "Y", "Q", "D", "G"}, []int{17, 5, 12, 20, 7}),
		mk("t3", []string{"C", "D", "Z"}, []int{18, 7, 19}),
		mk("t4", []string{"X", "Z"}, []int{18, 7}),
		mk("t5", []string{"Y", "Z"}, []int{21, 13}),
		mk("t6", []string{"F", "G", "W"}, []int{20, 7, 6}),
		mk("t7", []string{"P", "W"}, []int{22, 16}),
		mk("t8", []string{"Q", "W"}, []int{15, 12}),
		mk("t9", []string{"K", "X", "Y", "P", "Q"}, []int{18, 8, 18, 22, 10}),
	}
}

func clampDistinct(d, card int) int {
	if d > card {
		return card
	}
	return d
}
