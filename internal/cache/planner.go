package cache

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/hypergraph"
	"repro/internal/hypertree"
)

// Options tunes a Planner.
type Options struct {
	// Capacity bounds the entries per cache (plans, decompositions, and
	// search contexts each get their own). It is rounded up to a multiple
	// of Shards and enforced per shard, so under heavy key skew a shard
	// may evict before the global bound is reached. 0 means the default
	// of 1024.
	Capacity int
	// Shards is the number of lock shards per cache (clamped to
	// Capacity). 0 means 16.
	Shards int
	// MaxKVertices aborts searches whose candidate space Ψ exceeds the
	// bound, like core.Options.MaxKVertices. 0 means unlimited.
	MaxKVertices int
}

// Stats snapshots a Planner's cache counters. The JSON tags are the serving
// layer's wire contract (/v1/stats).
type Stats struct {
	// Plans counts cost-k-decomp plan lookups (Planner.Plan).
	Plans CacheStats `json:"plans"`
	// Decompositions counts unweighted decomposition lookups
	// (Planner.Decompose).
	Decompositions CacheStats `json:"decompositions"`
	// Searches counts reusable search families (one per canonical
	// structure; the width-specific contexts — k-vertex enumerations shared
	// between plan misses that differ only in statistics or in k — live
	// inside each family).
	Searches CacheStats `json:"searches"`
	// Infeasible counts the negative cache: Hits are requests answered
	// ErrNoDecomposition without a search, Misses are probes of structures
	// not known infeasible (most requests), Computations are infeasibility
	// results recorded.
	Infeasible CacheStats `json:"infeasible"`
}

// Add accumulates other into s field-wise (for aggregating a PlannerSet).
func (s Stats) Add(other Stats) Stats {
	s.Plans = s.Plans.add(other.Plans)
	s.Decompositions = s.Decompositions.add(other.Decompositions)
	s.Searches = s.Searches.add(other.Searches)
	s.Infeasible = s.Infeasible.add(other.Infeasible)
	return s
}

// Planner is a concurrent planning service: cost-k-decomp and k-decomp
// behind a canonical-form cache. Requests for structurally identical
// inputs — equal up to variable renaming — share one cache entry, and N
// concurrent requests for the same uncached structure run one search
// (singleflight). Cached results are stored in canonical form and remapped
// onto each caller's variable names, so callers never share mutable state.
//
// Statistics participate in the plan cache key: replacing or re-ANALYZE-ing
// a relation changes the key, so stale plans are never served; superseded
// entries simply age out of the LRU. All methods are safe for concurrent
// use.
type Planner struct {
	opts       Options
	plans      *lru
	decomps    *lru
	searches   *lru
	infeasible *lru

	planFlight   flightGroup
	decompFlight flightGroup
	searchFlight flightGroup
}

// NewPlanner returns a Planner with the given options.
func NewPlanner(opts Options) *Planner {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	return &Planner{
		opts:       opts,
		plans:      newLRU(opts.Capacity, opts.Shards),
		decomps:    newLRU(opts.Capacity, opts.Shards),
		searches:   newLRU(opts.Capacity, opts.Shards),
		infeasible: newLRU(opts.Capacity, opts.Shards),
	}
}

// Stats snapshots the cache counters. Hits + Misses equals the number of
// completed lookups; Computations counts searches actually executed, so
// Misses − Computations is the work saved by singleflight deduplication.
func (p *Planner) Stats() Stats {
	return Stats{
		Plans:          p.plans.stats(),
		Decompositions: p.decomps.stats(),
		Searches:       p.searches.stats(),
		Infeasible:     p.infeasible.stats(),
	}
}

// Negative-cache keys. Infeasibility at width k is a property of the
// canonical structure alone — feasibility of the candidate graph does not
// depend on the TAF or on statistics — so ErrNoDecomposition is cached per
// (canonical form, k) and short-circuits every later request for the same
// structure, whatever its statistics. Keys are namespaced so query and
// hypergraph canonical forms cannot collide in the shared LRU.
func planNegKey(canonKey string, k int) string {
	return "q\x00" + canonKey + "\x00k" + strconv.Itoa(k)
}

func decompNegKey(canonKey string, k int) string {
	return "h\x00" + canonKey + "\x00k" + strconv.Itoa(k)
}

// knownInfeasible probes the negative cache (counted as Infeasible hits and
// misses).
func (p *Planner) knownInfeasible(key string) bool {
	_, ok := p.infeasible.get(key)
	return ok
}

// recordInfeasible notes that a search returned ErrNoDecomposition.
func (p *Planner) recordInfeasible(key string) {
	p.infeasible.computations.Add(1)
	p.infeasible.add(key, struct{}{})
}

// Plan is the cached equivalent of cost.CostKDecomp: an optimal width-≤k
// query plan for q over cat's statistics. The cache key is the canonical
// form of q plus k plus the statistics of the referenced relations, so
// structurally identical queries over equivalent statistics share one
// entry regardless of variable names. Run cat.AnalyzeAll first.
func (p *Planner) Plan(q *cq.Query, cat *db.Catalog, k int) (*cost.Plan, error) {
	plan, _, err := p.PlanCached(q, cat, k)
	return plan, err
}

// PlanCached is Plan but additionally reports whether the result — or the
// ErrNoDecomposition outcome — was served without running a new search: a
// plan-cache or negative-cache hit, or a joined in-flight computation.
func (p *Planner) PlanCached(q *cq.Query, cat *db.Catalog, k int) (*cost.Plan, bool, error) {
	probe, err := p.ProbePlan(q, cat, k)
	if err != nil {
		if errors.Is(err, ErrUncacheable) {
			// Not canonicalizable (duplicate atom names — unaliased
			// self-joins): bypass the cache and let the direct path produce
			// its usual error (or, if planning such a query ever becomes
			// legal, its plan).
			plan, derr := cost.CostKDecomp(q, cat, k, core.Options{MaxKVertices: p.opts.MaxKVertices})
			return plan, false, derr
		}
		return nil, false, err
	}
	if plan, ok, err := p.LookupPlan(probe); ok {
		return plan, true, err
	}
	return p.ComputePlan(probe)
}

// Decompose is the cached equivalent of core.DecomposeK: some width-≤k
// normal-form hypertree decomposition of h, keyed on h's canonical form.
func (p *Planner) Decompose(h *hypergraph.Hypergraph, k int) (*hypertree.Decomposition, error) {
	d, _, err := p.DecomposeCached(h, k)
	return d, err
}

// DecomposeCached is Decompose with the served-without-a-search flag of
// PlanCached.
func (p *Planner) DecomposeCached(h *hypergraph.Hypergraph, k int) (*hypertree.Decomposition, bool, error) {
	hc := CanonicalizeHypergraph(h)
	if p.knownInfeasible(decompNegKey(hc.Key, k)) {
		return nil, true, core.ErrNoDecomposition
	}
	key := hc.Key + "\x00k" + strconv.Itoa(k)
	if v, ok := p.decomps.get(key); ok {
		return remapDecomposition(v.(*hypertree.Decomposition), hc, h), true, nil
	}
	v, shared, err := p.decompFlight.do(key, func() (any, error) {
		p.decomps.computations.Add(1)
		sc, err := core.NewSearchContext(hc.H, k, core.Options{MaxKVertices: p.opts.MaxKVertices})
		if err != nil {
			return nil, err
		}
		d, err := core.DecomposeKCtx(sc, core.Options{})
		if err != nil {
			if errors.Is(err, core.ErrNoDecomposition) {
				p.recordInfeasible(decompNegKey(hc.Key, k))
			}
			return nil, err
		}
		p.decomps.add(key, d)
		return d, nil
	})
	if err != nil {
		return nil, shared, err
	}
	return remapDecomposition(v.(*hypertree.Decomposition), hc, h), shared, nil
}

// searchFor returns the cached PlanSearch for (structure, k). Searches are
// cached as one cost.PlanSearchFamily per canonical structure, so requests
// for the same structure at different width bounds share the augmented
// query, the hypergraph, and the component-interning StructIndex; the
// family builds and reuses the width-specific context per k internally.
// The singleflight collapses concurrent cold misses whose plan keys differ
// (same structure, different statistics).
func (p *Planner) searchFor(qc *QueryCanon, k int) (*cost.PlanSearch, error) {
	if v, ok := p.searches.get(qc.Key); ok {
		return v.(*cost.PlanSearchFamily).At(k)
	}
	v, _, err := p.searchFlight.do(qc.Key, func() (any, error) {
		fam, err := cost.NewPlanSearchFamily(qc.Query, core.Options{MaxKVertices: p.opts.MaxKVertices})
		if err != nil {
			return nil, err
		}
		p.searches.computations.Add(1)
		p.searches.add(qc.Key, fam)
		return fam, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*cost.PlanSearchFamily).At(k)
}

// canonicalizeEstimates renames per-atom estimates to canonical names: the
// map keys (atom names — aliases canonicalize to pred#i) and the variable
// keys inside each estimate, including the fresh variables whose names
// derive from atom names.
func canonicalizeEstimates(ests map[string]cost.Est, qc *QueryCanon) map[string]cost.Est {
	out := make(map[string]cost.Est, len(ests))
	for name, e := range ests {
		v := make(map[string]float64, len(e.V))
		for vn, val := range e.V {
			v[qc.CanonVarName(vn)] = val
		}
		out[qc.CanonAtomName(name)] = cost.Est{Card: e.Card, V: v}
	}
	return out
}

// planKey builds the full plan-cache key: canonical structure, width bound,
// and the canonicalized quantitative input of the cost model (per-atom
// cardinality and per-variable selectivity). Two calls with equal keys are
// guaranteed to describe isomorphic search problems.
func planKey(qc *QueryCanon, k int, canonEsts map[string]cost.Est) string {
	var b strings.Builder
	b.WriteString(qc.Key)
	b.WriteString("\x00k")
	b.WriteString(strconv.Itoa(k))
	for _, a := range qc.Query.Atoms {
		e := canonEsts[a.Name()]
		b.WriteByte('\x00')
		b.WriteString(strconv.FormatFloat(e.Card, 'g', -1, 64))
		for _, v := range a.Vars {
			b.WriteByte(';')
			b.WriteString(strconv.FormatFloat(e.V[v], 'g', -1, 64))
		}
	}
	return b.String()
}

// remapPlan translates a canonical cached plan onto the caller's variable
// names, rebuilding the decomposition tree over the caller's augmented
// hypergraph. The result shares nothing mutable with the cache entry.
func remapPlan(canon *cost.Plan, qc *QueryCanon, q *cq.Query) (*cost.Plan, error) {
	fq := q.WithFreshVariables()
	h2, err := fq.Hypergraph()
	if err != nil {
		return nil, err
	}
	h1 := canon.Decomp.H
	varMap := make([]int, h1.NumVars())
	for i := 0; i < h1.NumVars(); i++ {
		// CallerVarName covers both renamed body variables and fresh
		// variables, whose names follow the (canonically renamed) atom names.
		name := qc.CallerVarName(h1.VarName(i))
		j := h2.VarByName(name)
		if j < 0 {
			return nil, fmt.Errorf("cache: remap lost variable %s", name)
		}
		varMap[i] = j
	}
	edgeMap := make([]int, h1.NumEdges())
	for e := 0; e < h1.NumEdges(); e++ {
		name := qc.CallerAtomName(h1.EdgeName(e))
		j := h2.EdgeByName(name)
		if j < 0 {
			return nil, fmt.Errorf("cache: remap lost edge %s", name)
		}
		edgeMap[e] = j
	}
	nodeCosts := make(map[*hypertree.Node]float64, len(canon.NodeCosts))
	var rec func(n *hypertree.Node) *hypertree.Node
	rec = func(n *hypertree.Node) *hypertree.Node {
		chi := h2.NewVarset()
		n.Chi.ForEach(func(v int) { chi.Set(varMap[v]) })
		lambda := make([]int, len(n.Lambda))
		for i, e := range n.Lambda {
			lambda[i] = edgeMap[e]
		}
		m := hypertree.NewNode(chi, lambda)
		if c, ok := canon.NodeCosts[n]; ok {
			nodeCosts[m] = c
		}
		for _, c := range n.Children {
			m.AddChild(rec(c))
		}
		return m
	}
	d := &hypertree.Decomposition{H: h2, Root: rec(canon.Decomp.Root)}
	d.Nodes()
	return &cost.Plan{Query: fq, Decomp: d, EstimatedCost: canon.EstimatedCost, NodeCosts: nodeCosts}, nil
}

// remapDecomposition translates a canonical cached decomposition onto the
// caller's hypergraph via the caller's canonicalization maps.
func remapDecomposition(d *hypertree.Decomposition, hc *HypergraphCanon, target *hypergraph.Hypergraph) *hypertree.Decomposition {
	var rec func(n *hypertree.Node) *hypertree.Node
	rec = func(n *hypertree.Node) *hypertree.Node {
		chi := target.NewVarset()
		n.Chi.ForEach(func(v int) { chi.Set(hc.VarFromCanon[v]) })
		lambda := make([]int, len(n.Lambda))
		for i, e := range n.Lambda {
			lambda[i] = hc.EdgeFromCanon[e]
		}
		m := hypertree.NewNode(chi, lambda)
		for _, c := range n.Children {
			m.AddChild(rec(c))
		}
		return m
	}
	out := &hypertree.Decomposition{H: target, Root: rec(d.Root)}
	out.Nodes()
	return out
}
