package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/server"
)

// Answer verification. Every operation's answer is checked against the
// library, outside the timed window and outside setup_s:
//
//   - plans: width ≤ k, estimated cost equal to cost.CostKDecomp on the
//     same query and catalog, and plan bytes identical to what a local
//     cache.Planner serves for the same query text — which pins renamed
//     variants and every replica of a cluster to one byte string;
//   - streams: a trailer with status ok, a trailer rowCount equal to the
//     rows received, and an order-independent checksum equal to the
//     expected answer of the catalog version the header reported.

// rowsSum is an order-independent multiset digest of answer rows.
type rowsSum struct {
	Rows int
	Sum  uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// add folds one row into the digest.
func (s *rowsSum) add(row []int32) {
	h := uint64(len(row))
	for _, v := range row {
		h = mix64(h ^ uint64(uint32(v)))
	}
	s.Sum += mix64(h + 0x9e3779b97f4a7c15)
	s.Rows++
}

// planResult is what the client records of one /v1/plan answer.
type planResult struct {
	Status int
	Width  int
	Cost   float64
	Plan   []byte // raw "plan" member
}

// execResult is what the client records of one /v2/execute answer.
type execResult struct {
	Status    int
	Version   uint64
	Trailer   string // trailer status; "" when the stream had none
	RowCount  int    // trailer rowCount
	Boolean   *bool
	Got       rowsSum
	Truncated bool
}

// patchResult is what the client records of one PATCH answer.
type patchResult struct {
	Status  int
	Base    uint64
	Version uint64
}

// planOracle computes and memoizes expected plan answers.
type planOracle struct {
	w       *workload
	planner *cache.Planner

	mu     sync.Mutex
	direct map[int]*directPlan // plan case → CostKDecomp outcome
}

type directPlan struct {
	once sync.Once
	cost float64
	err  error
}

func newPlanOracle(w *workload) *planOracle {
	return &planOracle{
		w:       w,
		planner: cache.NewPlanner(cache.Options{Capacity: 1 << 16, MaxKVertices: server.DefaultMaxPsi}),
		direct:  map[int]*directPlan{},
	}
}

func (o *planOracle) directCost(j, k int) (float64, error) {
	o.mu.Lock()
	d := o.direct[j]
	if d == nil {
		d = &directPlan{}
		o.direct[j] = d
	}
	o.mu.Unlock()
	d.once.Do(func() {
		pc := o.w.cases[j]
		p, err := cost.CostKDecomp(pc.Query, pc.Cat, k, core.Options{MaxKVertices: server.DefaultMaxPsi})
		if err != nil {
			d.err = err
			return
		}
		d.cost = p.EstimatedCost
	})
	return d.cost, d.err
}

// check verifies one plan answer to op.
func (o *planOracle) check(op op, got planResult) error {
	if op.Form < 0 { // warm-up structures outside the corpus: status only
		if got.Status != 200 && got.Status != 422 {
			return fmt.Errorf("warm-up plan: status %d", got.Status)
		}
		return nil
	}
	q, err := cq.Parse(op.Query)
	if err != nil {
		return err
	}
	cat := o.w.cases[op.Form].Cat
	plan, _, perr := o.planner.PlanCached(q, cat, op.K)
	dcost, derr := o.directCost(op.Form, op.K)
	if errors.Is(perr, core.ErrNoDecomposition) != errors.Is(derr, core.ErrNoDecomposition) {
		return fmt.Errorf("library disagrees with itself on feasibility: %v vs %v", perr, derr)
	}
	switch {
	case errors.Is(perr, core.ErrNoDecomposition):
		if got.Status != 422 {
			return fmt.Errorf("status %d, want 422 (infeasible at k=%d)", got.Status, op.K)
		}
		return nil
	case perr != nil:
		return fmt.Errorf("library plan: %w", perr)
	}
	if got.Status != 200 {
		return fmt.Errorf("status %d, want 200", got.Status)
	}
	if got.Width > op.K {
		return fmt.Errorf("width %d > k=%d", got.Width, op.K)
	}
	if !costEqual(got.Cost, dcost) {
		return fmt.Errorf("estimated cost %v, CostKDecomp says %v", got.Cost, dcost)
	}
	want, err := planBytes(plan)
	if err != nil {
		return err
	}
	if !bytes.Equal(got.Plan, want) {
		return fmt.Errorf("plan bytes differ from the library's")
	}
	return nil
}

func costEqual(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// planBytes renders a plan exactly as the server's JSON encoder does.
func planBytes(p *cost.Plan) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(engine.SerializeDecomposition(p.Decomp, p.NodeCosts)); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// answerKey names one expected execute answer.
type answerKey struct {
	tenant  string
	dataset int
	form    int
}

// expectedAnswer is the library's answer to one query form over one dataset.
type expectedAnswer struct {
	Boolean bool
	IsBool  bool
	Sum     rowsSum
}

// expectAnswers evaluates every query form of an exec workload over every
// dataset of its tenant with the row-at-a-time evaluator — a different
// engine from the streaming one the server runs — planned by
// cost.CostKDecomp. stream-large, whose answers are plain two- and
// three-way joins, is checked against a direct hash join instead.
func expectAnswers(w *workload) (map[answerKey]expectedAnswer, error) {
	out := map[answerKey]expectedAnswer{}
	for tenant, et := range w.execs {
		for d, cat := range et.Datasets {
			for fi, q := range et.Forms {
				var ans expectedAnswer
				var err error
				if w.Name == "stream-large" {
					ans, err = joinAnswer(q, cat)
				} else {
					ans, err = rowEngineAnswer(q, cat, et.K)
				}
				if err != nil {
					return nil, fmt.Errorf("expected answer %s/%d/%d: %w", tenant, d, fi, err)
				}
				out[answerKey{tenant, d, fi}] = ans
			}
		}
	}
	return out, nil
}

func rowEngineAnswer(q *cq.Query, cat *db.Catalog, k int) (expectedAnswer, error) {
	p, err := cost.CostKDecomp(q, cat, k, core.Options{})
	if err != nil {
		return expectedAnswer{}, err
	}
	res, err := engine.EvalDecomposition(p.Decomp, p.Query, cat, nil)
	if err != nil {
		return expectedAnswer{}, err
	}
	if q.IsBoolean() {
		return expectedAnswer{IsBool: true, Boolean: engine.Answer(res)}, nil
	}
	// Project onto the head in order; the evaluator's relation may carry
	// its columns in another order.
	pos := make([]int, len(q.Out))
	for i, v := range q.Out {
		if pos[i] = res.AttrIndex(v); pos[i] < 0 {
			return expectedAnswer{}, fmt.Errorf("head variable %s missing from the answer", v)
		}
	}
	seen := map[string]bool{}
	var ans expectedAnswer
	row := make([]int32, len(pos))
	for _, t := range res.Tuples {
		for i, p := range pos {
			row[i] = t[p]
		}
		key := fmt.Sprint(row)
		if !seen[key] {
			seen[key] = true
			ans.Sum.add(row)
		}
	}
	return ans, nil
}

// joinAnswer answers stream-large's ans(A,C) :- l(A,B), r(B,C)[, f(C)]
// with a hash join written here, independent of the engine. Both sides
// carry unique a and c values, so the join has no duplicate rows.
func joinAnswer(q *cq.Query, cat *db.Catalog) (expectedAnswer, error) {
	l, r := cat.Get(q.Atoms[0].Predicate), cat.Get(q.Atoms[1].Predicate)
	if l == nil || r == nil {
		return expectedAnswer{}, fmt.Errorf("unknown relations in %s", q)
	}
	keep := func(int32) bool { return true }
	if len(q.Atoms) == 3 {
		f := map[int32]bool{}
		for _, t := range cat.Get(q.Atoms[2].Predicate).Tuples {
			f[t[0]] = true
		}
		keep = func(c int32) bool { return f[c] }
	}
	byB := map[int32][]int32{}
	for _, t := range r.Tuples {
		if keep(t[1]) {
			byB[t[0]] = append(byB[t[0]], t[1])
		}
	}
	var ans expectedAnswer
	for _, t := range l.Tuples {
		for _, c := range byB[t[1]] {
			ans.Sum.add([]int32{t[0], c})
		}
	}
	return ans, nil
}

// checkExec verifies one streamed answer against the expected answer of
// the dataset its catalog version carries.
func checkExec(want expectedAnswer, got execResult) error {
	if got.Status != 200 {
		return fmt.Errorf("status %d", got.Status)
	}
	if got.Trailer != "ok" {
		return fmt.Errorf("trailer status %q", got.Trailer)
	}
	if got.Truncated {
		return fmt.Errorf("malformed stream")
	}
	if want.IsBool {
		if got.Boolean == nil || *got.Boolean != want.Boolean {
			return fmt.Errorf("boolean answer %v, want %v", got.Boolean, want.Boolean)
		}
		return nil
	}
	if got.RowCount != got.Got.Rows {
		return fmt.Errorf("trailer rowCount %d, received %d rows", got.RowCount, got.Got.Rows)
	}
	if got.Got != want.Sum {
		return fmt.Errorf("answer digest %d rows/%x, want %d rows/%x", got.Got.Rows, got.Got.Sum, want.Sum.Rows, want.Sum.Sum)
	}
	return nil
}

// versionMap resolves a tenant's catalog versions to datasets. The setup
// PUT installs dataset 0; a data PATCH installs its dataset; a stats-only
// PATCH keeps the dataset of its base version.
type versionMap struct {
	mu      sync.Mutex
	dataset map[string]map[uint64]int // tenant → version → dataset (-1: stats-only, resolve via base)
	base    map[string]map[uint64]uint64
}

func newVersionMap() *versionMap {
	return &versionMap{dataset: map[string]map[uint64]int{}, base: map[string]map[uint64]uint64{}}
}

func (m *versionMap) record(tenant string, base, version uint64, dataset int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dataset[tenant] == nil {
		m.dataset[tenant] = map[uint64]int{}
		m.base[tenant] = map[uint64]uint64{}
	}
	m.dataset[tenant][version] = dataset
	m.base[tenant][version] = base
}

func (m *versionMap) resolve(tenant string, version uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for hops := 0; hops < 1<<16; hops++ {
		d, ok := m.dataset[tenant][version]
		if !ok {
			return 0, fmt.Errorf("tenant %s: unknown catalog version %d", tenant, version)
		}
		if d >= 0 {
			return d, nil
		}
		version = m.base[tenant][version]
	}
	return 0, fmt.Errorf("tenant %s: version chain too long", tenant)
}
