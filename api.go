package htd

import (
	"io"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/hypertree"
	"repro/internal/optimizer"
	"repro/internal/server"
	"repro/internal/weights"
)

// Re-exported types. The facade keeps one name per concept; the internal
// packages carry the full API surface.
type (
	// Hypergraph is a hypergraph H = (var(H), edges(H)).
	Hypergraph = hypergraph.Hypergraph
	// Varset is a set of hypergraph variables.
	Varset = hypergraph.Varset
	// Decomposition is a hypertree decomposition ⟨T,χ,λ⟩.
	Decomposition = hypertree.Decomposition
	// Node is a vertex of a decomposition tree.
	Node = hypertree.Node
	// Query is a conjunctive query in datalog-rule form.
	Query = cq.Query
	// Atom is one body atom of a conjunctive query.
	Atom = cq.Atom
	// Relation is an in-memory relation.
	Relation = db.Relation
	// Catalog is a set of relations with ANALYZE statistics.
	Catalog = db.Catalog
	// TableStats is per-relation cardinality and selectivity data (Fig 5).
	TableStats = db.TableStats
	// Plan is a cost-k-decomp query plan.
	Plan = cost.Plan
	// NodeInfo is the weighting view of a decomposition vertex.
	NodeInfo = weights.NodeInfo
	// Metrics instruments plan execution.
	Metrics = engine.Metrics
	// Options tunes the decomposition algorithms.
	Options = core.Options
)

// TAF is a tree aggregation function F(⊕,v,e) over weight type W.
type TAF[W any] = weights.TAF[W]

// ErrNoDecomposition is returned when no width-k NF decomposition exists.
var ErrNoDecomposition = core.ErrNoDecomposition

// ParseHypergraph reads the "name(V1,V2,...)"-per-line format.
func ParseHypergraph(text string) (*Hypergraph, error) { return hypergraph.Parse(text) }

// ParseQuery reads a conjunctive query in datalog rule syntax.
func ParseQuery(text string) (*Query, error) { return cq.Parse(text) }

// Decompose returns some width-≤k normal-form hypertree decomposition.
func Decompose(h *Hypergraph, k int) (*Decomposition, error) {
	return core.DecomposeK(h, k, core.Options{})
}

// HypertreeWidth computes hw(h) (searching k ≤ maxK) and an optimal
// decomposition.
func HypertreeWidth(h *Hypergraph, maxK int) (int, *Decomposition, error) {
	return core.HypertreeWidth(h, maxK, core.Options{})
}

// Minimal computes an [taf, kNFD]-minimal hypertree decomposition and its
// weight (algorithm minimal-k-decomp, Theorem 4.4).
func Minimal[W any](h *Hypergraph, k int, taf TAF[W]) (*Decomposition, W, error) {
	res, err := core.MinimalK(h, k, taf, core.Options{})
	if err != nil {
		var zero W
		return nil, zero, err
	}
	return res.Decomp, res.Weight, nil
}

// MinimalSeeded is Minimal with seeded random tie-breaking (any minimal
// decomposition can be returned).
func MinimalSeeded[W any](h *Hypergraph, k int, taf TAF[W], seed int64) (*Decomposition, W, error) {
	res, err := core.MinimalK(h, k, taf, core.Options{Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		var zero W
		return nil, zero, err
	}
	return res.Decomp, res.Weight, nil
}

// Threshold decides whether some width-≤k NF decomposition has weight ≤ t.
func Threshold[W any](h *Hypergraph, k int, taf TAF[W], t W) (bool, error) {
	return core.Threshold(h, k, taf, t, core.Options{})
}

// Ready-made TAFs (Examples 3.1 and 4.2 of the paper).
var (
	// WidthTAF minimizes the decomposition width.
	WidthTAF = weights.WidthTAF
	// LexTAF minimizes the width-profile lexicographically.
	LexTAF = weights.LexTAF
	// MaxSeparatorTAF minimizes the largest χ-separator.
	MaxSeparatorTAF = weights.MaxSeparatorTAF
)

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return db.NewCatalog() }

// NewRelation returns an empty relation with the given schema.
func NewRelation(name string, attrs ...string) *Relation { return db.NewRelation(name, attrs...) }

// PlanQuery runs cost-k-decomp: it computes the minimal weighted hypertree
// decomposition of q under the cost TAF cost_H(Q) over cat's statistics —
// an optimal width-≤k query plan (Section 6). Run cat.AnalyzeAll first.
// Every call re-runs the full search; services planning structurally
// repetitive queries should use a Planner instead.
func PlanQuery(q *Query, cat *Catalog, k int) (*Plan, error) {
	return cost.CostKDecomp(q, cat, k, core.Options{})
}

// Planner is a concurrent planning service: PlanQuery and Decompose behind
// a canonical-form plan cache. Structurally identical inputs — equal up to
// variable renaming, like r(X,Y),s(Y,Z) and r(A,B),s(B,C) — share one
// cache entry, concurrent requests for the same uncached structure run a
// single search, and cached results are remapped onto each caller's
// variable names. Safe for concurrent use; construct with NewPlanner.
type Planner = cache.Planner

// PlannerOptions tunes a Planner (cache capacity, lock shards, candidate-
// space guard). The zero value selects sensible defaults.
type PlannerOptions = cache.Options

// PlannerStats snapshots a Planner's per-cache hit/miss/eviction counters.
type PlannerStats = cache.Stats

// CacheStats is one cache's counter snapshot within PlannerStats.
type CacheStats = cache.CacheStats

// NewPlanner returns a planning service with the given options.
func NewPlanner(opts PlannerOptions) *Planner { return cache.NewPlanner(opts) }

// ExecutePlan evaluates a cost-k-decomp plan with Yannakakis's algorithm.
func ExecutePlan(p *Plan, cat *Catalog) (*Relation, error) {
	return engine.EvalDecomposition(p.Decomp, p.Query, cat, nil)
}

// ExecutePlanMetered is ExecutePlan with instrumentation.
func ExecutePlanMetered(p *Plan, cat *Catalog, m *Metrics) (*Relation, error) {
	return engine.EvalDecomposition(p.Decomp, p.Query, cat, m)
}

// RowStream is an incremental query answer: batches of rows pulled from the
// columnar streaming evaluator, at most BatchSize rows per Next call. The
// full answer never has to be materialized — memory is bounded by the
// reduced per-vertex relations plus a compact dedup set. Next returns
// io.EOF after the last batch; Close releases the cursor early; RowsSeq
// adapts it to a Go range-over-func iterator.
type RowStream = engine.Stream

// ColStore shares columnar conversions and per-(relation, key) hash
// indexes across executions on one catalog snapshot — including across
// aliases of a relation within a single self-join query.
type ColStore = engine.ColStore

// BatchSize is the row-chunk granularity of streamed answers.
const BatchSize = engine.BatchSize

// NewColStore returns a shared columnar store over cat. Reuse it across
// ExecutePlanStream calls while cat is unchanged; drop it when the catalog
// is replaced.
func NewColStore(cat *Catalog) *ColStore { return engine.NewColStore(cat) }

// ExecutePlanStream evaluates a cost-k-decomp plan with the streaming
// vectorized engine: full Yannakakis reduction up front, then the answer
// is enumerated incrementally as row batches. m may be nil.
func ExecutePlanStream(p *Plan, cat *Catalog, m *Metrics) (*RowStream, error) {
	return engine.EvalDecompositionStream(p.Decomp, p.Query, cat, m)
}

// ExecutePlanStreamWith is ExecutePlanStream reusing a shared ColStore,
// whose catalog snapshot supplies the data (cross-request index reuse).
func ExecutePlanStreamWith(cs *ColStore, p *Plan, m *Metrics) (*RowStream, error) {
	return engine.EvalDecompositionStreamWith(cs, p.Decomp, p.Query, m)
}

// DrainStream collects a stream's remaining batches into a relation (the
// buffered form; closes the stream).
func DrainStream(s *RowStream) (*Relation, error) { return engine.Drain(s) }

// BaselinePlan runs the quantitative-only Selinger baseline ("CommDB") and
// returns its left-deep join order and estimated cost.
func BaselinePlan(q *Query, cat *Catalog) (engine.LeftDeepPlan, float64, error) {
	return optimizer.Plan(q, cat)
}

// ExecuteBaseline evaluates a left-deep baseline plan.
func ExecuteBaseline(p engine.LeftDeepPlan, q *Query, cat *Catalog, m *Metrics) (*Relation, error) {
	return engine.EvalLeftDeep(p, q, cat, m)
}

// EvalNaive evaluates q by brute-force joins (test oracle; exponential).
func EvalNaive(q *Query, cat *Catalog) (*Relation, error) { return engine.EvalNaive(q, cat) }

// Answer interprets a Boolean query result.
func Answer(r *Relation) bool { return engine.Answer(r) }

// FormatLogicalPlan renders a complete decomposition as its logical query
// plan (views, semijoin program, final joins).
func FormatLogicalPlan(d *Decomposition, boolean bool) string {
	return engine.FormatLogicalPlan(d, boolean)
}

// ReadCatalog parses relations from the line-oriented text format of
// internal/db (see WriteCatalog).
func ReadCatalog(r io.Reader) (*Catalog, error) { return db.ReadCatalog(r) }

// WriteCatalog serializes every relation of the catalog.
func WriteCatalog(w io.Writer, c *Catalog) error { return db.WriteCatalog(w, c) }

// CatalogDelta is a per-relation catalog change set: relation blocks
// replace one relation's data (re-ANALYZEd on apply), analyze blocks
// override one relation's statistics without touching tuples. Apply with
// Catalog.ApplyDelta — on a Catalog.Clone when the original must stay
// immutable (the server's PATCH endpoint publishes clones via
// compare-and-put so concurrent readers keep a consistent snapshot).
type CatalogDelta = db.CatalogDelta

// ReadCatalogDelta parses a delta from the same line-oriented text format
// as ReadCatalog, extended with `analyze <relation> card <n>` blocks (see
// WriteCatalogDelta).
func ReadCatalogDelta(r io.Reader) (*CatalogDelta, error) { return db.ReadCatalogDelta(r) }

// WriteCatalogDelta serializes a delta in the wire format ReadCatalogDelta
// parses.
func WriteCatalogDelta(w io.Writer, d *CatalogDelta) error { return db.WriteCatalogDelta(w, d) }

// Server is the plan-as-a-service HTTP layer: the Planner and engine behind
// a JSON API with per-tenant catalogs, request coalescing, admission
// control, and Prometheus metrics export. Construct with NewServer, then
// either embed Handler in an existing http.Server or run ListenAndServe;
// cmd/planserver is the standalone binary.
type Server = server.Server

// ServerConfig tunes a Server (planner options, tenant isolation, width
// bounds, timeouts, concurrency limit, admission, result cache). The zero
// value selects production-safe defaults.
type ServerConfig = server.Config

// PlanNode is the JSON wire form of a decomposition vertex (λ and χ as
// names, optional subtree cost, children) used in server responses.
type PlanNode = engine.PlanNode

// CatalogRegistry is a concurrent-safe set of catalogs keyed by tenant.
type CatalogRegistry = db.Registry

// NewServer returns a serving layer with the given configuration.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewCatalogRegistry returns an empty tenant-catalog registry.
func NewCatalogRegistry() *CatalogRegistry { return db.NewRegistry() }

// SerializeDecomposition renders a decomposition as its JSON wire tree;
// costs (e.g. Plan.NodeCosts) may be nil.
func SerializeDecomposition(d *Decomposition, costs map[*Node]float64) *PlanNode {
	return engine.SerializeDecomposition(d, costs)
}
