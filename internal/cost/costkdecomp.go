package cost

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/hypergraph"
	"repro/internal/hypertree"
)

// cost-k-decomp (Section 6): the specialization of minimal-k-decomp to the
// TAF cost_H(Q). It augments the query with fresh variables so that every
// minimal NF decomposition is complete and translates directly into an
// executable query plan.

// Plan is the output of cost-k-decomp: a complete hypertree decomposition
// of the fresh-augmented query, the augmented query itself (which the
// engine evaluates; its output variables are the original ones), the
// estimated cost of the plan under cost_H(Q), and per-vertex subtree cost
// estimates (the "$" annotations of the paper's Figs 6 and 7).
type Plan struct {
	Query         *cq.Query // fresh-augmented
	Decomp        *hypertree.Decomposition
	EstimatedCost float64
	NodeCosts     map[*hypertree.Node]float64
}

// FormatAnnotated renders the plan tree with the Figs 6/7 "$" subtree-cost
// labels.
func (p *Plan) FormatAnnotated() string {
	h := p.Decomp.H
	var b strings.Builder
	var rec func(n *hypertree.Node, depth int)
	rec = func(n *hypertree.Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "λ=%s χ=%s", h.EdgesNames(n.Lambda), h.VarsetNames(n.Chi))
		if c, ok := p.NodeCosts[n]; ok {
			fmt.Fprintf(&b, "  $%.0f", c)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Decomp.Root, 0)
	return b.String()
}

// CostKDecomp computes a [cost_H(Q), kNFD]-minimal hypertree decomposition
// of the fresh-augmented q over the statistics in cat, i.e. an optimal
// width-≤k query plan under the cost model. It returns
// core.ErrNoDecomposition if the augmented query has no width-k NF
// decomposition.
func CostKDecomp(q *cq.Query, cat *db.Catalog, k int, opts core.Options) (*Plan, error) {
	ps, err := NewPlanSearch(q, k, opts)
	if err != nil {
		return nil, err
	}
	model, err := NewModel(ps.FQ, cat)
	if err != nil {
		return nil, err
	}
	return ps.Run(model, opts)
}

// PlanSearch is the reusable structural half of cost-k-decomp for one
// (query structure, k): the fresh-augmented query, its hypergraph H(Q⁺),
// and the enumerated k-vertex search context. Building one is the dominant
// fixed cost of planning; Run can then be invoked repeatedly — with
// different cost models (catalogs, statistics snapshots) — without
// re-paying the per-call allocations. A PlanSearch is immutable after
// construction and safe for concurrent use.
type PlanSearch struct {
	FQ *cq.Query              // fresh-augmented query
	H  *hypergraph.Hypergraph // H(FQ)
	SC *core.SearchContext    // k-vertices of H(FQ) at width k
}

// NewPlanSearch augments q with fresh variables, builds its hypergraph, and
// enumerates the width-k candidate space once.
func NewPlanSearch(q *cq.Query, k int, opts core.Options) (*PlanSearch, error) {
	fam, err := NewPlanSearchFamily(q, opts)
	if err != nil {
		return nil, err
	}
	return fam.At(k)
}

// PlanSearchFamily is a set of PlanSearch contexts over one query at
// different width bounds, sharing the fresh-augmented query, its
// hypergraph, and one core.StructIndex — so the component-interning table
// (a property of the hypergraph alone, not of k) is populated once and
// every width's solver reuses it. Sweep plans a whole k-range over one
// family instead of rebuilding the query, hypergraph, and component tables
// per k. Safe for concurrent use.
type PlanSearchFamily struct {
	FQ *cq.Query              // fresh-augmented query
	H  *hypergraph.Hypergraph // H(FQ)

	idx  *core.StructIndex
	opts core.Options
	mu   sync.Mutex
	byK  map[int]*PlanSearch
}

// NewPlanSearchFamily augments q with fresh variables and builds the shared
// structural index; contexts per width are enumerated lazily by At.
func NewPlanSearchFamily(q *cq.Query, opts core.Options) (*PlanSearchFamily, error) {
	fq := q.WithFreshVariables()
	h, err := fq.Hypergraph()
	if err != nil {
		return nil, err
	}
	return &PlanSearchFamily{
		FQ:   fq,
		H:    h,
		idx:  core.NewStructIndex(h),
		opts: opts,
		byK:  map[int]*PlanSearch{},
	}, nil
}

// At returns the family's PlanSearch for width bound k, enumerating that
// width's k-vertex space on first use.
func (f *PlanSearchFamily) At(k int) (*PlanSearch, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ps, ok := f.byK[k]; ok {
		return ps, nil
	}
	// Chaos: stall the enumeration while holding the family lock, so
	// concurrent cold misses on this structure pile up behind it.
	chaos.Hit(chaos.CostFamilyAt, chaos.Delay)
	sc, err := core.NewSearchContextShared(f.idx, k, f.opts)
	if err != nil {
		return nil, err
	}
	ps := &PlanSearch{FQ: f.FQ, H: f.H, SC: sc}
	f.byK[k] = ps
	return ps, nil
}

// Run executes the minimal-k-decomp search over the prepared context with
// the given cost model. The model must have been built for ps.FQ (or a
// query with identical variable names), e.g. with NewModel or
// NewModelFromEstimates.
func (ps *PlanSearch) Run(model *Model, opts core.Options) (*Plan, error) {
	res, err := core.MinimalKCtx(ps.SC, model.TAF(), opts)
	if err != nil {
		return nil, err
	}
	if !res.Decomp.IsComplete() {
		// Guaranteed by the fresh-variable trick; guard against regressions.
		return nil, fmt.Errorf("cost: minimal decomposition unexpectedly incomplete")
	}
	return &Plan{Query: ps.FQ, Decomp: res.Decomp, EstimatedCost: res.Weight,
		NodeCosts: res.NodeWeights}, nil
}

// KSweep runs CostKDecomp for every k in [kMin, kMax] and reports the
// estimated cost per k (the Fig 7 / Section 6 sweep: 3 521 741 at k=2 down
// to 854 867 at k=4,5 on the paper's statistics). Entries are NaN-free:
// infeasible widths are reported with Feasible=false.
type SweepEntry struct {
	K             int
	Feasible      bool
	EstimatedCost float64
	Plan          *Plan
}

// Sweep computes SweepEntry for k = kMin..kMax. All widths share one
// PlanSearchFamily — one fresh augmentation, one hypergraph, one cost
// model, one component-interning table — so each k pays only its own
// k-vertex enumeration and solve, not a from-scratch CostKDecomp.
func Sweep(q *cq.Query, cat *db.Catalog, kMin, kMax int, opts core.Options) ([]SweepEntry, error) {
	fam, err := NewPlanSearchFamily(q, opts)
	if err != nil {
		return nil, err
	}
	model, err := NewModel(fam.FQ, cat)
	if err != nil {
		return nil, err
	}
	var out []SweepEntry
	for k := kMin; k <= kMax; k++ {
		ps, err := fam.At(k)
		if err != nil {
			return nil, err
		}
		p, err := ps.Run(model, opts)
		switch {
		case errors.Is(err, core.ErrNoDecomposition):
			out = append(out, SweepEntry{K: k})
		case err != nil:
			return nil, err
		default:
			out = append(out, SweepEntry{K: k, Feasible: true, EstimatedCost: p.EstimatedCost, Plan: p})
		}
	}
	return out, nil
}
