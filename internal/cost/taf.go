package cost

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/hypergraph"
	"repro/internal/weights"
)

// Model builds the cost TAF cost_H(Q) = F(+,v*,e*) of Example 4.3 for a
// query and its catalog statistics:
//
//	v*(p) = estimated cost of evaluating E(p) = π_χ(p)(⋈_{h∈λ(p)} rel(h))
//	e*(p,p′) = estimated cost of the semijoin E(p) ⋉ E(p′)
//
// The model caches E(p) estimates per (λ, χ) label, and the join estimate
// of ⋈_{h∈λ} rel(h) per λ alone (many solution nodes share a λ with
// different χ, and the join chain is the expensive part). Nodes produced by
// the candidate-graph solvers carry an integer MemoKey, so both caches are
// probed on small integer keys without serializing the sets; nodes without
// a key (free-standing hypertrees) fall back to string keys.
//
// It is safe for concurrent use, and the hot read path takes no lock at
// all: both memo caches are lock-free-read tables (weights.Memo) probed
// with one hash and an atomic slot load, and the estimates themselves are
// int-keyed (IEst, indexed by the hypergraph's variable ids), so a
// memoized vertex or edge evaluation allocates nothing, takes no lock, and
// writes no shared cache line — concurrent solves sharing a model scale
// instead of serializing on a reader counter.
type Model struct {
	query   *cq.Query
	edgeEst map[string]Est // per atom name: base-relation stats as query vars

	nodes *weights.Memo[weights.MemoKey, nodeEst] // nodes stamped by a solver
	joins *weights.Memo[[2]int32, joinEst]        // per (gen, λ ID) join estimates

	// Cold-path state behind one mutex: the per-hypergraph int-keyed base
	// estimates (built once per hypergraph on first miss) and the string-key
	// fallback caches for nodes without a MemoKey.
	mu        sync.Mutex
	tables    map[*hypergraph.Hypergraph]*edgeTable
	cache     map[string]*nodeEst
	joinCache map[string]*joinEst
}

type nodeEst struct {
	est  IEst
	cost float64
}

// joinEst is the memoized result of joining all relations of a λ.
type joinEst struct {
	est  IEst
	cost float64
}

// edgeTable holds the base-relation estimates of one hypergraph, indexed by
// edge id with variable-id keys — the int-keyed form every chain join and
// projection in the hot path consumes. A nil entry means the predicate has
// no estimate.
type edgeTable struct {
	byEdge []*IEst
}

// NewModel prepares a cost model for q over analyzed statistics in cat.
// Atoms whose last variable is fresh (cq.WithFreshVariables) get a
// synthetic key attribute with selectivity = cardinality, matching the
// row-id realization in the engine.
func NewModel(q *cq.Query, cat *db.Catalog) (*Model, error) {
	ests, err := EdgeEstimates(q, cat)
	if err != nil {
		return nil, err
	}
	return NewModelFromEstimates(q, ests), nil
}

// NewModelFromEstimates builds a cost model directly from per-predicate
// base-relation estimates (each Est keyed by q's variable names), bypassing
// the catalog. This is how a plan cache runs the search on a canonicalized
// query: it computes EdgeEstimates on the caller's query, renames the
// estimate keys to canonical variables, and feeds them here.
func NewModelFromEstimates(q *cq.Query, ests map[string]Est) *Model {
	return &Model{
		query:   q,
		edgeEst: ests,
		nodes:   weights.NewMemo[weights.MemoKey, nodeEst](hashMemoKey),
		joins: weights.NewMemo[[2]int32, joinEst](func(k [2]int32) uint64 {
			return mix64(uint64(uint32(k[0]))<<32 | uint64(uint32(k[1])))
		}),
		tables:    map[*hypergraph.Hypergraph]*edgeTable{},
		cache:     map[string]*nodeEst{},
		joinCache: map[string]*joinEst{},
	}
}

// hashMemoKey mixes a MemoKey's three small ints into well-spread table
// bits (cheaper than the runtime's generic 12-byte struct hash).
func hashMemoKey(k weights.MemoKey) uint64 {
	return mix64(uint64(uint32(k.Lambda))<<32 | uint64(uint32(k.Chi))*0x9e3779b9 ^ uint64(uint32(k.Gen)))
}

// mix64 is splitmix64's finalizer: full-avalanche mixing of a 64-bit word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EdgeEstimates computes, per atom name (alias, or predicate when
// unaliased — the name of the atom's hyperedge in H(Q)), the estimated
// statistics of the atom's base relation with attributes renamed to the
// query's variables: exactly the quantitative input the cost TAF consumes.
// Every alias of a base relation resolves to that relation's cardinality
// and selectivities, under the alias's own variable naming. It fails if
// some atom's relation has no statistics (run cat.AnalyzeAll first).
func EdgeEstimates(q *cq.Query, cat *db.Catalog) (map[string]Est, error) {
	out := map[string]Est{}
	for _, a := range q.Atoms {
		st := cat.Stats(a.Predicate)
		if st == nil {
			return nil, fmt.Errorf("cost: relation %s not analyzed", a.Predicate)
		}
		rel := cat.Get(a.Predicate)
		vars := a.Vars
		fresh := len(vars) > 0 && cq.IsFreshVariable(vars[len(vars)-1])
		baseVars := vars
		if fresh {
			baseVars = vars[:len(vars)-1]
		}
		var attrs []string
		mapping := map[string]string{}
		switch {
		case rel != nil && len(rel.Attrs) == len(baseVars):
			attrs = rel.Attrs
			for i, col := range rel.Attrs {
				mapping[col] = baseVars[i]
			}
		default:
			// Stats-only catalogs (e.g. the published Fig 5 numbers) keyed
			// directly by query variable names.
			attrs = baseVars
		}
		e := FromStats(st, attrs, mapping)
		if fresh {
			e.V[vars[len(vars)-1]] = e.Card
		}
		out[a.Name()] = e
	}
	return out, nil
}

// tableFor returns the int-keyed base estimates for h, converting the
// string-keyed edgeEst once per hypergraph. Only cold (memo-miss) paths
// reach it, so the mutex is uncontended in the steady state.
func (m *Model) tableFor(h *hypergraph.Hypergraph) *edgeTable {
	m.mu.Lock()
	tab, ok := m.tables[h]
	if !ok {
		tab = &edgeTable{byEdge: make([]*IEst, h.NumEdges())}
		for e := 0; e < h.NumEdges(); e++ {
			if est, ok := m.edgeEst[h.EdgeName(e)]; ok {
				ie := ToIEst(est, h.VarByName)
				tab.byEdge[e] = &ie
			}
		}
		m.tables[h] = tab
	}
	m.mu.Unlock()
	return tab
}

// estOf returns the estimate and evaluation cost of E(p) for a
// decomposition node, memoized on its (λ, χ) labels — on the node's
// integer MemoKey when the solver stamped one, else on a string key.
func (m *Model) estOf(p weights.NodeInfo) (*nodeEst, error) {
	var skey string
	if p.Memo.Valid() {
		if ne := m.nodes.Get(p.Memo); ne != nil {
			return ne, nil
		}
	} else {
		skey = nodeKey(p)
		m.mu.Lock()
		ne, ok := m.cache[skey]
		m.mu.Unlock()
		if ok {
			return ne, nil
		}
	}
	je, err := m.joinOf(p)
	if err != nil {
		return nil, err
	}
	// ChainJoin's cost already accounts for reading the inputs and writing
	// the join output; projecting onto χ(p) happens while writing it.
	ne := &nodeEst{est: ProjectI(je.est, p.Chi), cost: je.cost}
	if p.Memo.Valid() {
		m.nodes.Put(p.Memo, ne)
	} else {
		m.mu.Lock()
		m.cache[skey] = ne
		m.mu.Unlock()
	}
	return ne, nil
}

// joinOf returns the memoized greedy join estimate of ⋈_{h∈λ(p)} rel(h),
// which depends on λ alone: solution nodes sharing a λ across components
// (and across width bounds in a sweep sharing one StructIndex) pay the
// chain-join estimation once.
func (m *Model) joinOf(p weights.NodeInfo) (*joinEst, error) {
	var ikey [2]int32
	var skey string
	if p.Memo.Valid() {
		ikey = [2]int32{p.Memo.Gen, p.Memo.Lambda}
		if je := m.joins.Get(ikey); je != nil {
			return je, nil
		}
	} else {
		skey = lambdaKey(p.Lambda)
		m.mu.Lock()
		je, ok := m.joinCache[skey]
		m.mu.Unlock()
		if ok {
			return je, nil
		}
	}
	tab := m.tableFor(p.H)
	inputs := make([]IEst, 0, len(p.Lambda))
	for _, e := range p.Lambda {
		ie := tab.byEdge[e]
		if ie == nil {
			return nil, fmt.Errorf("cost: no estimate for predicate %s", p.H.EdgeName(e))
		}
		inputs = append(inputs, *ie)
	}
	joined, joinCost, err := ChainJoinI(inputs)
	if err != nil {
		return nil, err
	}
	je := &joinEst{est: joined, cost: joinCost}
	if p.Memo.Valid() {
		m.joins.Put(ikey, je)
	} else {
		m.mu.Lock()
		m.joinCache[skey] = je
		m.mu.Unlock()
	}
	return je, nil
}

func nodeKey(p weights.NodeInfo) string {
	var b strings.Builder
	for _, e := range p.Lambda {
		b.WriteString(strconv.Itoa(e))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	b.WriteString(p.Chi.Key())
	return b.String()
}

func lambdaKey(lambda []int) string {
	var b strings.Builder
	for _, e := range lambda {
		b.WriteString(strconv.Itoa(e))
		b.WriteByte(',')
	}
	return b.String()
}

// Vertex is v*(p): the estimated cost of computing E(p).
func (m *Model) Vertex(p weights.NodeInfo) float64 {
	ne, err := m.estOf(p)
	if err != nil {
		// TAFs are total functions; unknown predicates make the node
		// prohibitively expensive rather than failing mid-algorithm.
		return 1e30
	}
	return ne.cost
}

// Edge is e*(p,p′): the estimated cost of the semijoin E(p) ⋉ E(p′) —
// SemijoinCost, which reads both inputs and depends on the cardinalities
// alone.
func (m *Model) Edge(parent, child weights.NodeInfo) float64 {
	pe, err1 := m.estOf(parent)
	ce, err2 := m.estOf(child)
	if err1 != nil || err2 != nil {
		return 1e30
	}
	return pe.est.Card + ce.est.Card
}

// TAF returns cost_H(Q) as a weights.TAF ready for core.MinimalK.
func (m *Model) TAF() weights.TAF[float64] {
	return weights.TAF[float64]{
		Semiring: weights.SumFloat{},
		Vertex:   m.Vertex,
		Edge:     m.Edge,
	}
}

// EstimateOf exposes the estimated statistics of E(p) (used by reports and
// examples to annotate plans with the $-costs of Figs 6 and 7).
func (m *Model) EstimateOf(p weights.NodeInfo) (Est, float64, error) {
	ne, err := m.estOf(p)
	if err != nil {
		return Est{}, 0, err
	}
	return ne.est.ToEst(p.H.VarName), ne.cost, nil
}
