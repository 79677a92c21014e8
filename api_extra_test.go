package htd

import (
	"math/rand"
	"strings"
	"testing"
)

func TestFacadeCatalogIO(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cat := triangleCatalog(rng)
	var buf strings.Builder
	if err := WriteCatalog(&buf, cat); err != nil {
		t.Fatal(err)
	}
	cat2, err := ReadCatalog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"r", "s", "t"} {
		if !cat.Get(name).Equal(cat2.Get(name)) {
			t.Errorf("relation %s changed in round trip", name)
		}
	}
}

func TestFacadeFormatLogicalPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q, err := ParseQuery("ans :- r(A,B), s(B,C), t(C,A)")
	if err != nil {
		t.Fatal(err)
	}
	cat := triangleCatalog(rng)
	plan, err := PlanQuery(q, cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatLogicalPlan(plan.Decomp, q.IsBoolean())
	if !strings.Contains(text, "≠ ∅") || !strings.Contains(text, "⋉") {
		t.Errorf("logical plan rendering incomplete:\n%s", text)
	}
	annotated := plan.FormatAnnotated()
	if !strings.Contains(annotated, "$") {
		t.Errorf("annotated plan missing subtree costs:\n%s", annotated)
	}
}

func TestFacadeDecomposeGameAndReduce(t *testing.T) {
	h, err := ParseHypergraph("e1(A,B)\ne2(B,C)\ne3(C,D)\ne4(D,A)")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.MarshalsWin() {
		t.Error("decomposition should be a winning strategy")
	}
	r := d.Reduce()
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
	c := d.Complete()
	if !c.IsComplete() {
		t.Error("Complete() failed")
	}
}
