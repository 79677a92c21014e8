package cache

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/hypertree"
)

// This file is the distribution surface of the plan cache: the pieces the
// serving tier needs to shard the keyspace across replicas and to persist
// entries across restarts. A PlanProbe resolves a request to its stable
// cache coordinates (the byte key the consistent-hash ring shards on); a
// PlanRecord is the lossless wire/disk form of a canonical cached plan,
// importable on any replica. Plans fetched from a peer or loaded from disk
// go through exactly the remapping path locally computed plans do, so they
// are byte-identical to a local computation — the determinism oracle holds
// across the tier.

// ErrUncacheable marks queries the canonical-form cache cannot key
// (duplicate atom names — unaliased self-joins). Such requests bypass the
// cache, the ring, and the store.
var ErrUncacheable = errors.New("cache: query not canonicalizable")

// PlanProbe is a plan request resolved to its cache coordinates: the full
// plan key (canonical structure + width bound + canonicalized statistics —
// the shard key of the distributed tier) and the negative-cache key. Build
// with Planner.ProbePlan; pass to LookupPlan/ComputePlan of the same
// Planner.
type PlanProbe struct {
	// Key is the full plan-cache key. It is a stable byte string: two
	// replicas probing isomorphic queries over equal statistics compute
	// equal keys, which is what makes it the ring's shard key.
	Key string
	// NegKey is the negative-cache key (canonical structure + width).
	NegKey string
	// K is the width bound.
	K int

	qc        *QueryCanon
	canonEsts map[string]cost.Est
	q         *cq.Query
}

// ProbePlan canonicalizes q and resolves the statistics of its relations
// into the plan-cache coordinates, without touching any cache. Returns
// ErrUncacheable (wrapped) for queries the cache cannot key.
func (p *Planner) ProbePlan(q *cq.Query, cat *db.Catalog, k int) (*PlanProbe, error) {
	qc, err := CanonicalizeQuery(q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUncacheable, err)
	}
	fq := q.WithFreshVariables()
	ests, err := cost.EdgeEstimates(fq, cat)
	if err != nil {
		return nil, err
	}
	canonEsts := canonicalizeEstimates(ests, qc)
	return &PlanProbe{
		Key:       planKey(qc, k, canonEsts),
		NegKey:    planNegKey(qc.Key, k),
		K:         k,
		qc:        qc,
		canonEsts: canonEsts,
		q:         q,
	}, nil
}

// LookupPlan is the warm half of PlanCached: a negative-cache probe and a
// plan-cache probe, never a search. ok reports whether the request was
// answered (the error is core.ErrNoDecomposition on a negative hit); on
// (nil, false, nil) the caller decides between ComputePlan and a peer.
func (p *Planner) LookupPlan(probe *PlanProbe) (plan *cost.Plan, ok bool, err error) {
	if p.knownInfeasible(probe.NegKey) {
		return nil, true, core.ErrNoDecomposition
	}
	if v, lok := p.plans.get(probe.Key); lok {
		plan, err := remapPlan(v.(*cost.Plan), probe.qc, probe.q)
		return plan, true, err
	}
	return nil, false, nil
}

// ComputePlan is the cold half of PlanCached: singleflight-deduplicated
// search, negative-cache recording on infeasibility, LRU insert, and
// remapping onto the probing query's variable names. shared reports
// whether the result came from joining another goroutine's in-flight
// computation.
func (p *Planner) ComputePlan(probe *PlanProbe) (plan *cost.Plan, shared bool, err error) {
	v, shared, err := p.planFlight.do(probe.Key, func() (any, error) {
		p.plans.computations.Add(1)
		ps, err := p.searchFor(probe.qc, probe.K)
		if err != nil {
			return nil, err
		}
		model := cost.NewModelFromEstimates(ps.FQ, probe.canonEsts)
		plan, err := ps.Run(model, core.Options{})
		if err != nil {
			if errors.Is(err, core.ErrNoDecomposition) {
				p.recordInfeasible(probe.NegKey)
			}
			return nil, err
		}
		p.plans.add(probe.Key, plan)
		return plan, nil
	})
	if err != nil {
		return nil, shared, err
	}
	plan, err = remapPlan(v.(*cost.Plan), probe.qc, probe.q)
	return plan, shared, err
}

// PlanRecord is the lossless wire/disk form of one canonical cached plan:
// the canonical fresh-augmented hypergraph (edges with their named
// variables) plus the decomposition tree with per-node subtree costs. It
// reuses the plan wire serialization (engine.PlanNode) the HTTP edge
// already speaks, so peers exchange the same representation clients see.
type PlanRecord struct {
	Edges         []RecordEdge     `json:"edges"`
	EstimatedCost float64          `json:"estimatedCost"`
	Root          *engine.PlanNode `json:"root"`
}

// RecordEdge is one hyperedge of the canonical hypergraph.
type RecordEdge struct {
	Name string   `json:"name"`
	Vars []string `json:"vars"`
}

// encodePlanRecord renders a canonical cached plan. Everything is by name:
// variable and edge indices are private to a Hypergraph instance, names
// are the cross-process contract.
func encodePlanRecord(canon *cost.Plan) *PlanRecord {
	h := canon.Decomp.H
	edges := make([]RecordEdge, h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		re := RecordEdge{Name: h.EdgeName(e)}
		h.EdgeVars(e).ForEach(func(v int) { re.Vars = append(re.Vars, h.VarName(v)) })
		edges[e] = re
	}
	return &PlanRecord{
		Edges:         edges,
		EstimatedCost: canon.EstimatedCost,
		Root:          engine.SerializeDecomposition(canon.Decomp, canon.NodeCosts),
	}
}

// decodePlanRecord rebuilds the canonical cached plan from a record.
// Records arrive from peers and disk, so every failure is an error, never
// a panic. The rebuilt plan's Query is nil: remapping onto a caller query
// reads only the hypergraph, the tree, and the costs.
func decodePlanRecord(rec *PlanRecord) (*cost.Plan, error) {
	if rec == nil || rec.Root == nil || len(rec.Edges) == 0 {
		return nil, errors.New("cache: empty plan record")
	}
	b := hypergraph.NewBuilder()
	for _, e := range rec.Edges {
		if err := b.Edge(e.Name, e.Vars...); err != nil {
			return nil, fmt.Errorf("cache: plan record edge %s: %w", e.Name, err)
		}
	}
	h, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("cache: plan record hypergraph: %w", err)
	}
	nodeCosts := make(map[*hypertree.Node]float64)
	var rebuild func(pn *engine.PlanNode) (*hypertree.Node, error)
	rebuild = func(pn *engine.PlanNode) (*hypertree.Node, error) {
		chi := h.NewVarset()
		for _, name := range pn.Chi {
			v := h.VarByName(name)
			if v < 0 {
				return nil, fmt.Errorf("cache: plan record references unknown variable %s", name)
			}
			chi.Set(v)
		}
		lambda := make([]int, len(pn.Lambda))
		for i, name := range pn.Lambda {
			e := h.EdgeByName(name)
			if e < 0 {
				return nil, fmt.Errorf("cache: plan record references unknown edge %s", name)
			}
			lambda[i] = e
		}
		n := hypertree.NewNode(chi, lambda)
		if pn.Cost != nil {
			nodeCosts[n] = *pn.Cost
		}
		for _, c := range pn.Children {
			child, err := rebuild(c)
			if err != nil {
				return nil, err
			}
			n.AddChild(child)
		}
		return n, nil
	}
	root, err := rebuild(rec.Root)
	if err != nil {
		return nil, err
	}
	d := &hypertree.Decomposition{H: h, Root: root}
	d.Nodes()
	return &cost.Plan{Decomp: d, EstimatedCost: rec.EstimatedCost, NodeCosts: nodeCosts}, nil
}

// ExportPlan serializes the resident canonical entry for a full plan key,
// for peer serving and persistence. The probe bypasses the hit/miss
// counters so exports do not distort the workload's cache statistics.
func (p *Planner) ExportPlan(key string) (*PlanRecord, bool) {
	v, ok := p.plans.peek(key)
	if !ok {
		return nil, false
	}
	return encodePlanRecord(v.(*cost.Plan)), true
}

// ImportPlan validates and inserts a canonical plan record under the given
// full plan key — the peer warm-fill and the store warm-load both land
// here. Subsequent LookupPlan hits remap it exactly like a locally
// computed entry.
func (p *Planner) ImportPlan(key string, rec *PlanRecord) error {
	canon, err := decodePlanRecord(rec)
	if err != nil {
		return err
	}
	p.plans.add(key, canon)
	return nil
}

// ExportInfeasible reports whether negKey is a recorded infeasibility
// verdict (counter-free, like ExportPlan).
func (p *Planner) ExportInfeasible(negKey string) bool {
	_, ok := p.infeasible.peek(negKey)
	return ok
}

// ImportInfeasible records an infeasibility verdict learned from a peer or
// the store. Unlike recordInfeasible it does not count a computation: no
// local search ran.
func (p *Planner) ImportInfeasible(negKey string) {
	p.infeasible.add(negKey, struct{}{})
}
