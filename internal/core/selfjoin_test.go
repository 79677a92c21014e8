package core

import (
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/weights"
)

// Self-join hypergraphs: two hyperedges sharing a base relation carry
// distinct alias labels but may have *identical variable sets* (parallel
// edges, e.g. "e AS e1(X,Y), e AS e2(X,Y)"). The audit: everything in the
// candidate machinery must key on edge indices and k-vertex indices, never
// on variable sets alone — parallel edges are distinct k-vertices with
// distinct interned λ IDs, posting lists list both, and the indexed solver
// matches the full-scan oracle exactly.

// parallelEdgeCorpus builds hypergraphs containing edges with identical
// varsets, as produced by aliased self-joins (pre-augmentation).
func parallelEdgeCorpus() map[string]*hypergraph.Hypergraph {
	build := func(edges [][]string) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder()
		for _, e := range edges {
			b.MustEdge(e[0], e[1:]...)
		}
		return b.MustBuild()
	}
	return map[string]*hypergraph.Hypergraph{
		"parallel-pair": build([][]string{
			{"e1", "X", "Y"}, {"e2", "X", "Y"}, {"r", "Y", "Z"},
		}),
		"parallel-triple": build([][]string{
			{"e1", "X", "Y"}, {"e2", "X", "Y"}, {"e3", "X", "Y"},
		}),
		"two-parallel-groups": build([][]string{
			{"e1", "X", "Y"}, {"e2", "X", "Y"},
			{"f1", "Y", "Z"}, {"f2", "Y", "Z"},
			{"g", "Z", "W", "X"},
		}),
		"self-join-triangle": build([][]string{
			{"e1", "X", "Y"}, {"e2", "Y", "Z"}, {"e3", "Z", "X"},
		}),
	}
}

func TestParallelEdgesAreDistinctKVertices(t *testing.T) {
	h := parallelEdgeCorpus()["parallel-pair"]
	for k := 1; k <= 3; k++ {
		sc, err := NewSearchContext(h, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int64(sc.NumKVertices()), Psi(3, k); got != want {
			t.Fatalf("k=%d: %d k-vertices, want Ψ(3,%d)=%d — parallel edges conflated?", k, got, k, want)
		}
		// Singleton k-vertices of the two parallel edges: identical vars,
		// distinct interned λ IDs (the cost model memoizes per λ ID).
		var lamE1, lamE2 int32 = -1, -1
		e1, e2 := h.EdgeByName("e1"), h.EdgeByName("e2")
		for _, kv := range sc.kverts {
			if len(kv.edges) != 1 {
				continue
			}
			switch kv.edges[0] {
			case e1:
				lamE1 = kv.lamID
			case e2:
				lamE2 = kv.lamID
			}
		}
		if lamE1 < 0 || lamE2 < 0 {
			t.Fatalf("k=%d: singleton k-vertices for parallel edges missing", k)
		}
		if lamE1 == lamE2 {
			t.Fatalf("k=%d: parallel edges share interned λ ID %d", k, lamE1)
		}
		// Both appear in the posting lists of their variables.
		for _, vn := range []string{"X", "Y"} {
			v := h.VarByName(vn)
			found := map[int]bool{}
			for _, idx := range sc.postings[v] {
				for _, e := range sc.kverts[idx].edges {
					found[e] = true
				}
			}
			if !found[e1] || !found[e2] {
				t.Fatalf("k=%d: posting list of %s misses a parallel edge", k, vn)
			}
		}
	}
}

// TestParallelEdgesIndexedMatchesScanOracle runs the indexed solver against
// the full-scan reference on hypergraphs with duplicate varsets, under a
// TAF that distinguishes edges by index — so any conflation of parallel
// edges (in postings, memo keys, or solStructs) changes a weight or a tree
// and fails the byte-comparison.
func TestParallelEdgesIndexedMatchesScanOracle(t *testing.T) {
	vertex := func(p weights.NodeInfo) float64 {
		w := float64(p.Chi.Count())
		for _, e := range p.Lambda {
			w += float64((e + 1) * (e + 2)) // asymmetric in the edge index
		}
		return w
	}
	edge := func(parent, child weights.NodeInfo) float64 {
		return float64(parent.Chi.Count() + 2*child.Chi.Count())
	}
	taf := weights.TAF[float64]{Semiring: weights.SumFloat{}, Vertex: vertex, Edge: edge}

	for name, h := range parallelEdgeCorpus() {
		for k := 1; k <= 3; k++ {
			sc, err := NewSearchContext(h, k, Options{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			idx, errIdx := MinimalKCtx(sc, taf, Options{})
			scan, errScan := minimalKScan(sc, taf, Options{})
			if (errIdx == nil) != (errScan == nil) {
				t.Fatalf("%s k=%d: indexed err=%v scan err=%v", name, k, errIdx, errScan)
			}
			if errIdx != nil {
				continue
			}
			if idx.Weight != scan.Weight {
				t.Fatalf("%s k=%d: weight %v != scan %v", name, k, idx.Weight, scan.Weight)
			}
			if idx.Decomp.String() != scan.Decomp.String() {
				t.Fatalf("%s k=%d: decomposition differs from scan oracle\n%s\nvs\n%s",
					name, k, idx.Decomp, scan.Decomp)
			}
			if err := idx.Decomp.ValidateNF(); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
		}
	}
}

// TestParallelEdgesDecompose: plain decomposition over duplicate-varset
// hypergraphs works.
func TestParallelEdgesDecompose(t *testing.T) {
	for name, h := range parallelEdgeCorpus() {
		for k := 1; k <= 2; k++ {
			d, err := DecomposeK(h, k, Options{})
			if err == ErrNoDecomposition {
				continue
			}
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s k=%d: invalid decomposition: %v", name, k, err)
			}
		}
	}
}
