package bench

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cq"
)

// E4: the generated Q1 database reproduces Fig 5's statistics exactly.
func TestFig5Stats(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cat, err := BuildQ1Catalog(rng, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Fig5Specs() {
		st := cat.Stats(spec.Name)
		if st == nil {
			t.Fatalf("no stats for %s", spec.Name)
		}
		if st.Card != spec.Card {
			t.Errorf("|%s| = %d, want %d", spec.Name, st.Card, spec.Card)
		}
		for a, d := range spec.Distinct {
			if st.Distinct[a] != d {
				t.Errorf("selectivity %s.%s = %d, want %d", spec.Name, a, st.Distinct[a], d)
			}
		}
	}
	table, err := RunFig5(rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"|a| = 4606", "|j| = 4234", "SELECTIVITY S"} {
		if !strings.Contains(table, frag) {
			t.Errorf("stats table missing %q", frag)
		}
	}
}

// E5/E6: the k-sweep reproduces the paper's shape — costs strictly decrease
// from k=2 to k=4 and are flat from 4 to 5 (Section 6: "for both k = 4 and
// k = 5 we obtain 854 867"). The absolute estimates are 20.0×, 22.3× and
// 3.65× the paper's; they are pinned to the unit so that any drift in the
// cost model or the solver fails here.
func TestCostKSweepShape(t *testing.T) {
	rows, err := RunFig67()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("sweep rows = %d, want 4", len(rows))
	}
	byK := map[int]Fig7Row{}
	for _, r := range rows {
		if !r.Feasible {
			t.Fatalf("k=%d infeasible; Q1 has hypertree width 2", r.K)
		}
		byK[r.K] = r
	}
	if !(byK[2].EstimatedCost > byK[3].EstimatedCost) {
		t.Errorf("cost(k=2)=%.0f should exceed cost(k=3)=%.0f",
			byK[2].EstimatedCost, byK[3].EstimatedCost)
	}
	if !(byK[3].EstimatedCost >= byK[4].EstimatedCost) {
		t.Errorf("cost(k=3)=%.0f should be ≥ cost(k=4)=%.0f",
			byK[3].EstimatedCost, byK[4].EstimatedCost)
	}
	if d := math.Abs(byK[4].EstimatedCost - byK[5].EstimatedCost); d > 1e-6*byK[4].EstimatedCost {
		t.Errorf("cost(k=4)=%.0f should equal cost(k=5)=%.0f",
			byK[4].EstimatedCost, byK[5].EstimatedCost)
	}
	for k, want := range map[int]float64{2: 70601634, 3: 30620884, 4: 3123217, 5: 3123217} {
		if got := math.Round(byK[k].EstimatedCost); got != want {
			t.Errorf("cost(k=%d) = %.0f, pinned at %.0f", k, got, want)
		}
	}
}

// E7 at reduced scale: the structural plan and the baseline agree on the
// answer, and the ratio is computable. (The full-scale timing run lives in
// cmd/benchrun and bench_test.go.)
func TestFig8AComparisonSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	q1cat, err := BuildQ1Catalog(rng, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := runComparison(cq.Q1(), q1cat, []int{2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Agree {
			t.Errorf("k=%d: structural and baseline answers disagree", r.K)
		}
		if r.Ratio <= 0 {
			t.Errorf("k=%d: ratio %v not positive", r.K, r.Ratio)
		}
	}
	if s := FormatFig8A(rows); !strings.Contains(s, "ratio") {
		t.Error("Fig8A table missing header")
	}
}

// E8 at reduced scale.
func TestFig8BComparisonSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	rows, err := RunFig8BScaled(rng, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Query != "Q2" || rows[1].Query != "Q3" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if !r.Agree {
			t.Errorf("%s: answers disagree", r.Query)
		}
	}
	if s := FormatFig8B(rows); !strings.Contains(s, "Q3") {
		t.Error("Fig8B table missing Q3")
	}
}

func TestPsiTable(t *testing.T) {
	rows := RunPsiTable()
	if rows[0].Psi != 25 || rows[0].NtoK != 125 {
		t.Errorf("Ψ(5,3) row wrong: %+v", rows[0])
	}
	if rows[1].Psi != 385 || rows[1].NtoK != 10000 {
		t.Errorf("Ψ(10,4) row wrong: %+v", rows[1])
	}
	if s := FormatPsi(rows); !strings.Contains(s, "385") {
		t.Error("Psi table missing 385")
	}
}

// E14: the Section 1.1 hierarchy holds on every family: hw ≤ ghw ≤ tw+1,
// and the big-edge family separates hw from tw unboundedly.
func TestMethodComparison(t *testing.T) {
	rows := RunMethodComparison()
	byName := map[string]MethodRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Hw < 0 {
			continue
		}
		if r.Hw > r.GhwTD {
			t.Errorf("%s: hw %d > ghw %d", r.Name, r.Hw, r.GhwTD)
		}
		if r.GhwTD > r.Tw+1 {
			t.Errorf("%s: ghw %d > tw+1 %d", r.Name, r.GhwTD, r.Tw+1)
		}
	}
	if r := byName["bigedge12"]; r.Hw != 1 || r.Tw != 11 {
		t.Errorf("bigedge12 should separate hw (=1) from tw (=11): %+v", r)
	}
	if r := byName["H(Q1)"]; r.Hw != 2 {
		t.Errorf("hw(H(Q1)) = %d, want 2", r.Hw)
	}
	if s := FormatMethods(rows); !strings.Contains(s, "bigedge12") {
		t.Error("table missing bigedge12")
	}
}

func TestScaleSpecs(t *testing.T) {
	scaled := ScaleSpecs(Fig5Specs(), 0.01)
	for _, s := range scaled {
		if s.Card < 1 {
			t.Errorf("%s card %d", s.Name, s.Card)
		}
		for a, d := range s.Distinct {
			if d > s.Card {
				t.Errorf("%s.%s distinct %d > card %d", s.Name, a, d, s.Card)
			}
			if d < 1 {
				t.Errorf("%s.%s distinct %d", s.Name, a, d)
			}
		}
	}
}
