package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/weights"
)

// Oracle equivalence for indexed candidate pruning: the solver drawing
// candidates from posting lists must return byte-identical decompositions
// and weights to the reference path that scans all Ψ k-vertices with
// candidateOK per subproblem (the pre-index behaviour, kept alive via the
// solver's scanAll switch). Deterministic tie-breaking (Options.Rand == nil)
// makes "identical" well-defined.

// minimalKScan is MinimalKCtx forced onto the full-scan reference path.
func minimalKScan[W any](sc *SearchContext, taf weights.TAF[W], opts Options) (*Result[W], error) {
	sv, err := newSolver(sc, taf, opts)
	if err != nil {
		return nil, err
	}
	sv.scanAll = true
	return sv.run()
}

// oracleCorpus returns the fixture hypergraphs the equivalence suite runs
// over: the paper's Q0 and Q1 plus seeded random hypergraphs of mixed
// shapes.
func oracleCorpus() map[string]*hypergraph.Hypergraph {
	corpus := map[string]*hypergraph.Hypergraph{
		"Q0": buildQ0(),
		"Q1": buildQ1(),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		corpus[fmt.Sprintf("rand-%d", i)] = hypergraph.Random(rng, 7+i, 9+i, 3)
	}
	corpus["acyclic"] = hypergraph.RandomAcyclic(rand.New(rand.NewSource(5)), 8, 3)
	return corpus
}

func TestIndexedPruningMatchesScanOracle(t *testing.T) {
	vertex := func(p weights.NodeInfo) float64 {
		return float64(len(p.Lambda)*10 + p.Chi.Count())
	}
	edge := func(parent, child weights.NodeInfo) float64 {
		return float64(parent.Chi.Count() + 2*child.Chi.Count())
	}
	taf := weights.TAF[float64]{Semiring: weights.SumFloat{}, Vertex: vertex, Edge: edge}

	for name, h := range oracleCorpus() {
		for k := 1; k <= 3; k++ {
			sc, err := NewSearchContext(h, k, Options{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			want, wantErr := minimalKScan(sc, taf, Options{})
			got, gotErr := MinimalKCtx(sc, taf, Options{})
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s k=%d: indexed err %v, reference err %v", name, k, gotErr, wantErr)
			}
			if wantErr != nil {
				if !errors.Is(gotErr, ErrNoDecomposition) || !errors.Is(wantErr, ErrNoDecomposition) {
					t.Fatalf("%s k=%d: unexpected errors %v / %v", name, k, gotErr, wantErr)
				}
				continue
			}
			if got.Weight != want.Weight {
				t.Errorf("%s k=%d: weight %v != reference %v", name, k, got.Weight, want.Weight)
			}
			if g, w := got.Decomp.String(), want.Decomp.String(); g != w {
				t.Errorf("%s k=%d: decomposition differs from reference\nindexed:\n%s\nreference:\n%s", name, k, g, w)
			}
		}
	}
}

// TestIndexedPruningSameCandidateSets checks the stronger property behind
// the equivalence: for every subproblem reached, the pruned candidate list
// filtered by candidateOK equals the full-scan list, in the same order.
func TestIndexedPruningSameCandidateSets(t *testing.T) {
	for name, h := range oracleCorpus() {
		for k := 1; k <= 3; k++ {
			sc, err := NewSearchContext(h, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sv, err := newSolver(sc, unitTAF(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			root := sv.subproblem(sc.rootComp(), sc.empty, sc.emptyID)
			sv.solveSub(root)
			for key, q := range sv.subs {
				var scan []int
				for _, s := range sc.kverts {
					if sc.candidateOK(s, q.comp, q.iface) {
						scan = append(scan, s.idx)
					}
				}
				var pruned []int
				for _, si := range sc.candidateSpace(q.iface) {
					s := sc.kverts[si]
					if sc.candidateOK(s, q.comp, q.iface) {
						pruned = append(pruned, s.idx)
					}
				}
				if len(scan) != len(pruned) {
					t.Fatalf("%s k=%d sub %v: %d pruned candidates != %d scanned", name, k, key, len(pruned), len(scan))
				}
				for i := range scan {
					if scan[i] != pruned[i] {
						t.Fatalf("%s k=%d sub %v: candidate order diverges at %d (%d != %d)",
							name, k, key, i, pruned[i], scan[i])
					}
				}
			}
		}
	}
}

// TestSharedContextSolvesAgree re-solves one SearchContext with different
// TAFs and checks the shared structural caches leak nothing
// weight-dependent: each TAF's result equals a fresh-context solve.
func TestSharedContextSolvesAgree(t *testing.T) {
	h := buildQ1()
	sc, err := NewSearchContext(h, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tafs := []weights.TAF[float64]{
		weights.WidthTAF(),
		weights.MaxSeparatorTAF(),
		{Semiring: weights.SumFloat{}, Vertex: func(p weights.NodeInfo) float64 {
			return float64(p.Chi.Count())
		}},
	}
	for i, taf := range tafs {
		shared, err := MinimalKCtx(sc, taf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := MinimalK(h, 2, taf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if shared.Weight != fresh.Weight {
			t.Errorf("taf %d: shared-context weight %v != fresh %v", i, shared.Weight, fresh.Weight)
		}
		if shared.Decomp.String() != fresh.Decomp.String() {
			t.Errorf("taf %d: shared-context decomposition differs from fresh solve", i)
		}
	}
}
