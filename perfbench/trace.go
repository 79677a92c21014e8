package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/server"
)

// The traced run. It replays the first TraceOps operations of the
// workload serially three times:
//
//  1. over HTTP from one client against freshly set-up servers, reading
//     /v1/stats before and after (the program's own counters);
//  2. through the layers' public calls with spans off;
//  3. the same with spans on: one span per call — name, start, end,
//     parent and request id — kept in memory and written to
//     .bench_build/trace/<workload>-seed<seed>.jsonl at the end.
//
// Per-layer metrics come from pass 3, the HTTP overhead from passes 1
// and 2, and the tracing overhead from passes 2 and 3.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root
	Req    int    `json:"req"`    // the operation's index: the request id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// layerOf maps a span name onto its layer; root operation spans belong to
// the benchmark itself.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	switch l {
	case "op":
		return "bench"
	case "core":
		return "cost"
	}
	return l
}

// spanAgg summarizes pass 3 per span name and per layer.
type spanAgg struct {
	calls   map[string]int
	total   map[string]time.Duration // by span name
	selfDur map[string]time.Duration // by layer
}

func aggregate(spans []span) spanAgg {
	a := spanAgg{calls: map[string]int{}, total: map[string]time.Duration{}, selfDur: map[string]time.Duration{}}
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range spans {
		d := time.Duration(s.End - s.Start)
		a.calls[s.Name]++
		a.total[s.Name] += d
		a.selfDur[layerOf(s.Name)] += d - child[i]
	}
	return a
}

// mean is the mean duration of one call of the named span, in unit.
func (a spanAgg) mean(name string, unit time.Duration) float64 {
	if a.calls[name] == 0 {
		return 0
	}
	return float64(a.total[name]) / float64(a.calls[name]) / float64(unit)
}

// libCounts are outcome counts of a library replay.
type libCounts struct {
	lookups, lookupHits   int
	computations          int
	kvertices, subprobs   int64
	rekeyed               int
	rows, answerRows      int64
	intermediate, batches int64
	encodedRows           int64
	opMs                  []float64
}

// libReplay drives the layers directly, holding the state the server
// would: one shared planner, the tenants' current catalogs, a column
// store per tenant, and a byte-budget LRU of answers.
type libReplay struct {
	w       *workload
	tr      *tracer
	planner *cache.Planner
	cats    map[string]*db.Catalog
	stores  map[string]*engine.ColStore
	epoch   map[string]int
	results *answerLRU
	enc     bytes.Buffer
	n       libCounts
	probes  []*cache.PlanProbe
}

func newLibReplay(w *workload, on bool) *libReplay {
	return &libReplay{
		w:       w,
		tr:      &tracer{on: on, t0: time.Now()},
		planner: cache.NewPlanner(cache.Options{Capacity: 1 << 16, MaxKVertices: server.DefaultMaxPsi}),
		cats:    map[string]*db.Catalog{},
		stores:  map[string]*engine.ColStore{},
		epoch:   map[string]int{},
		results: newAnswerLRU(64 << 20),
	}
}

// run replays set-up (catalog load and ANALYZE) and then the operations;
// per-operation times are kept for the operations from index skip on.
func (r *libReplay) run(ops []op, skip int) (time.Duration, error) {
	start := time.Now()
	for i, tc := range r.w.Catalogs {
		root := r.tr.begin("op.catalog", -1, -1-i)
		s := r.tr.begin("db.read", root, -1-i)
		cat, err := db.ReadCatalog(bytes.NewReader(tc.text))
		r.tr.end(s)
		if err != nil {
			return 0, err
		}
		s = r.tr.begin("db.analyze", root, -1-i)
		err = cat.AnalyzeAll()
		r.tr.end(s)
		r.tr.end(root)
		if err != nil {
			return 0, err
		}
		r.cats[tc.Tenant] = cat
	}
	for i, o := range ops {
		t0 := time.Now()
		var err error
		switch o.Kind {
		case opPlan:
			root := r.tr.begin("op.plan", -1, i)
			err = r.plan(o, root, i)
			r.tr.end(root)
		case opExec:
			root := r.tr.begin("op.execute", -1, i)
			err = r.exec(o, root, i)
			r.tr.end(root)
		case opPatch:
			root := r.tr.begin("op.patch", -1, i)
			err = r.patch(o, root, i)
			r.tr.end(root)
		}
		if err != nil {
			return 0, fmt.Errorf("replay op %d: %w", i, err)
		}
		if i >= skip {
			r.n.opMs = append(r.n.opMs, time.Since(t0).Seconds()*1e3)
		}
	}
	return time.Since(start), nil
}

// plan is the server's /v1/plan path: parse, probe, then planProbed.
// Plan workloads also run each cold plan through the engine once over its
// tenant's catalog, so the engine layer is measured on their data too.
func (r *libReplay) plan(o op, root, req int) error {
	s := r.tr.begin("cq.parse", root, req)
	q, err := cq.Parse(o.Query)
	r.tr.end(s)
	if err != nil {
		return err
	}
	s = r.tr.begin("cache.probe", root, req)
	probe, err := r.planner.ProbePlan(q, r.cats[o.Tenant], o.K)
	r.tr.end(s)
	if err != nil {
		return err
	}
	plan, cold, err := r.planProbed(q, probe, o, root, req)
	if err != nil || plan == nil || !cold || r.w.execs != nil {
		return err
	}
	_, err = r.evaluate(o.Tenant, plan, root, req, false)
	return err
}

// planProbed is lookup and, on a miss, the cold search. A cold miss
// additionally times the search's two halves and counts its candidate
// graph through the cost and core entry points. An infeasible query
// yields a nil plan.
func (r *libReplay) planProbed(q *cq.Query, probe *cache.PlanProbe, o op, root, req int) (plan *cost.Plan, cold bool, err error) {
	r.probes = append(r.probes, probe)
	s := r.tr.begin("cache.lookup", root, req)
	plan, ok, err := r.planner.LookupPlan(probe)
	r.tr.end(s)
	r.n.lookups++
	if ok {
		r.n.lookupHits++
		return plan, false, ignoreInfeasible(err)
	}
	s = r.tr.begin("cache.compute", root, req)
	plan, _, err = r.planner.ComputePlan(probe)
	r.tr.end(s)
	r.n.computations++
	if serr := r.search(q, r.cats[o.Tenant], o.K, root, req); serr != nil {
		return nil, true, serr
	}
	return plan, true, ignoreInfeasible(err)
}

func ignoreInfeasible(err error) error {
	if errors.Is(err, core.ErrNoDecomposition) {
		return nil
	}
	return err
}

// search times discovery (cost.NewPlanSearch) and weighing
// (PlanSearch.Run) of one cold plan, and counts its candidate graph with
// core.MinimalKWithStats.
func (r *libReplay) search(q *cq.Query, cat *db.Catalog, k, root, req int) error {
	opts := core.Options{MaxKVertices: server.DefaultMaxPsi}
	s := r.tr.begin("cost.discover", root, req)
	ps, err := cost.NewPlanSearch(q, k, opts)
	r.tr.end(s)
	if err != nil {
		return ignoreInfeasible(err)
	}
	s = r.tr.begin("cost.weigh", root, req)
	model, err := cost.NewModel(ps.FQ, cat)
	if err != nil {
		r.tr.end(s)
		return err
	}
	_, err = ps.Run(model, core.Options{})
	r.tr.end(s)
	if err = ignoreInfeasible(err); err != nil {
		return err
	}
	s = r.tr.begin("core.search", root, req)
	_, st, err := core.MinimalKWithStats(ps.H, k, model.TAF(), opts)
	r.tr.end(s)
	r.n.kvertices += int64(st.KVertices)
	r.n.subprobs += int64(st.Subproblems)
	return ignoreInfeasible(err)
}

// exec is the server's execute path: probe, the answer cache, and on a
// miss planning, evaluation, enumeration and NDJSON encoding.
func (r *libReplay) exec(o op, root, req int) error {
	s := r.tr.begin("cq.parse", root, req)
	q, err := cq.Parse(o.Query)
	r.tr.end(s)
	if err != nil {
		return err
	}
	s = r.tr.begin("cache.probe", root, req)
	probe, err := r.planner.ProbePlan(q, r.cats[o.Tenant], o.K)
	r.tr.end(s)
	if err != nil {
		return err
	}
	// Answers depend on the data alone, so they are keyed by the data
	// epoch and the statistics-free structure key, as the server carries
	// them across stats-only deltas.
	key := fmt.Sprintf("%s\x00%d\x00%s", o.Tenant, r.epoch[o.Tenant], probe.NegKey)
	if rows, ok := r.results.get(key); ok {
		r.encode(rows, root, req)
		return nil
	}
	plan, _, err := r.planProbed(q, probe, o, root, req)
	if err != nil {
		return err
	}
	if plan == nil {
		return fmt.Errorf("execute of an infeasible query")
	}
	rows, err := r.evaluate(o.Tenant, plan, root, req, true)
	if err != nil {
		return err
	}
	r.results.put(key, rows)
	return nil
}

// evaluate runs a plan through the engine over the tenant's column store:
// one span per ColStore call, per evaluation (λ-joins and semijoin
// reduction happen when the stream opens) and per Stream.Next, plus the
// server's frame encoding of every batch.
func (r *libReplay) evaluate(tenant string, plan *cost.Plan, root, req int, keep bool) ([][]int32, error) {
	cs := r.stores[tenant]
	if cs == nil {
		cs = engine.NewColStore(r.cats[tenant])
		r.stores[tenant] = cs
	}
	for _, a := range plan.Query.Atoms {
		s := r.tr.begin("engine.colstore", root, req)
		_, err := cs.Relation(a.Predicate)
		r.tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	var m engine.Metrics
	s := r.tr.begin("engine.reduce", root, req)
	st, err := engine.EvalDecompositionStreamWith(cs, plan.Decomp, plan.Query, &m)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var rows [][]int32
	n := int64(0)
	for {
		s := r.tr.begin("engine.enumerate", root, req)
		batch, err := st.Next()
		r.tr.end(s)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n += int64(len(batch))
		if _, isBool := st.Boolean(); !isBool {
			r.encode(batch, root, req)
			if keep {
				rows = append(rows, batch...)
			}
		}
	}
	r.n.rows += n
	r.n.answerRows += max(n, 1)
	r.n.intermediate += m.IntermediateTuples
	r.n.batches += m.Batches
	return rows, nil
}

// encode renders rows as the server's NDJSON row frames.
func (r *libReplay) encode(rows [][]int32, root, req int) {
	for n := 0; n < len(rows); n += engine.BatchSize {
		batch := rows[n:min(n+engine.BatchSize, len(rows))]
		s := r.tr.begin("server.encode", root, req)
		r.enc.Reset()
		enc := json.NewEncoder(&r.enc)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(server.ExecStreamRows{Frame: "rows", Rows: batch}) // into a bytes.Buffer
		r.tr.end(s)
		r.n.encodedRows += int64(len(batch))
	}
}

// patch is the server's delta path: parse and apply to a clone, re-key
// the plan cache, carry the column store forward, and retire answers of
// changed data.
func (r *libReplay) patch(o op, root, req int) error {
	s := r.tr.begin("db.delta_apply", root, req)
	delta, err := db.ReadCatalogDelta(strings.NewReader(o.Body))
	var next *db.Catalog
	var dataChanged, statsChanged []string
	if err == nil {
		next = r.cats[o.Tenant].Clone()
		dataChanged, statsChanged, err = next.ApplyDelta(delta)
	}
	r.tr.end(s)
	if err != nil {
		return err
	}
	r.cats[o.Tenant] = next
	s = r.tr.begin("cache.rekey", root, req)
	r.n.rekeyed += r.planner.RekeyPlans(next, statsChanged, dataChanged)
	r.tr.end(s)
	if cs := r.stores[o.Tenant]; cs != nil {
		s = r.tr.begin("engine.colstore", root, req)
		r.stores[o.Tenant] = cs.CloneFor(next, dataChanged)
		r.tr.end(s)
	}
	if len(dataChanged) > 0 {
		r.epoch[o.Tenant]++
	}
	return nil
}

// answerLRU mirrors the server's result cache: a byte budget with the
// same per-row accounting, and answers over a quarter of the budget never
// cached.
type answerLRU struct {
	budget, used int64
	order        *list.List
	byKey        map[string]*list.Element
}

type lruEntry struct {
	key   string
	rows  [][]int32
	bytes int64
}

func newAnswerLRU(budget int64) *answerLRU {
	return &answerLRU{budget: budget, order: list.New(), byKey: map[string]*list.Element{}}
}

func (c *answerLRU) get(key string) ([][]int32, bool) {
	e, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*lruEntry).rows, true
}

func (c *answerLRU) put(key string, rows [][]int32) {
	var b int64
	for _, row := range rows {
		b += 24 + 4*int64(len(row))
	}
	if b > c.budget/4 {
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, rows: rows, bytes: b})
	c.used += b
	for c.used > c.budget {
		last := c.order.Back()
		ent := last.Value.(*lruEntry)
		c.order.Remove(last)
		delete(c.byKey, ent.key)
		c.used -= ent.bytes
	}
}

// plannerBackend serves a replay planner's entries over the peer RPC, so
// single-node workloads time cluster.Client.Get against their own plans.
type plannerBackend struct{ p *cache.Planner }

func (b plannerBackend) GetRecord(key, negKey string) ([]byte, bool, bool) {
	if b.p.ExportInfeasible(negKey) {
		return nil, true, true
	}
	rec, ok := b.p.ExportPlan(key)
	if !ok {
		return nil, false, false
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, false, false
	}
	return raw, false, true
}

func (plannerBackend) PutRecord(string, []byte) error { return nil }
func (plannerBackend) PutNegative(string) error       { return nil }

// peerGets times cluster.Client.Get for every planned key against every
// peer, returning the mean call time and the share answered.
func peerGets(tr *tracer, members []cluster.Member, probes []*cache.PlanProbe) (float64, float64, error) {
	c := cluster.NewClient(members, cluster.ClientOptions{PingInterval: -1})
	defer c.Close()
	var total time.Duration
	calls, hits := 0, 0
	for i, p := range probes {
		for _, m := range members {
			root := tr.begin("op.peer", -1, i)
			s := tr.begin("cluster.peer_get", root, i)
			t0 := time.Now()
			_, neg, ok, err := c.Get(context.Background(), m.ID, p.Key, p.NegKey)
			total += time.Since(t0)
			tr.end(s)
			tr.end(root)
			if err != nil {
				return 0, 0, fmt.Errorf("peer get from %s: %w", m.ID, err)
			}
			calls++
			if ok || neg {
				hits++
			}
		}
	}
	if calls == 0 {
		return 0, 0, nil
	}
	return total.Seconds() * 1e6 / float64(calls), float64(hits) / float64(calls), nil
}

// localPeer serves the planner's entries on a loopback peer listener.
func localPeer(p *cache.Planner) ([]cluster.Member, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ps := cluster.NewPeerServer(plannerBackend{p})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ps.Serve(ln) // returns nil after Close
	}()
	stop := func() {
		_ = ps.Close()
		<-done
	}
	return []cluster.Member{{ID: "local", Addr: ln.Addr().String()}}, stop, nil
}

func runTraced(cfg config, w *workload, v *verifier) (*result, error) {
	// The replayed sequence is what a measured run sends after set-up: the
	// PATCH probe, then the first TraceOps operations. The library passes
	// replay the set-up warm-up before it, as the servers of pass 1 did.
	ops := append([]op(nil), w.Probe...)
	for i := 0; i < w.TraceOps; i++ {
		ops = append(ops, w.Ops[i%len(w.Ops)])
	}
	withWarmup := append(append([]op(nil), w.Warmup...), ops...)
	res := &e2eResult{}

	// Pass 1: HTTP, one client.
	reps, _, warm, vmap, err := setup(cfg.server, w, 1)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer stopReplicas(reps)
	res.tally(v.checkAll(warm, vmap))
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	before, err := clusterStats(c, reps)
	if err != nil {
		return nil, err
	}
	recs := probeAll(w, reps, vmap)
	recs = append(recs, closedLoop(ops[len(w.Probe):], reps, 1, len(ops)-len(w.Probe), time.Time{}, vmap)...)
	after, err := clusterStats(c, reps)
	if err != nil {
		return nil, err
	}
	var clusterPeers []cluster.Member
	if len(reps) > 1 {
		for _, r := range reps {
			clusterPeers = append(clusterPeers, cluster.Member{ID: r.ID, Addr: r.Peer})
		}
	}

	// Passes 2 and 3: the library, spans off then on.
	off := newLibReplay(w, false)
	offDur, err := off.run(withWarmup, len(w.Warmup))
	if err != nil {
		return nil, err
	}
	on := newLibReplay(w, true)
	onDur, err := on.run(withWarmup, len(w.Warmup))
	if err != nil {
		return nil, err
	}
	var peerUs, peerHit float64
	if clusterPeers != nil {
		peerUs, peerHit, err = peerGets(on.tr, clusterPeers, on.probes)
	} else {
		members, stop, lerr := localPeer(on.planner)
		if lerr != nil {
			return nil, lerr
		}
		peerUs, peerHit, err = peerGets(on.tr, members, on.probes)
		stop()
	}
	if err != nil {
		return nil, err
	}
	stopReplicas(reps)
	res.tally(v.checkAll(recs, vmap))

	var httpMs, firstMs []float64
	for _, rec := range recs {
		httpMs = append(httpMs, rec.Timing.Latency.Seconds()*1e3)
		if rec.Op.Kind != opPatch {
			firstMs = append(firstMs, rec.Timing.First.Seconds()*1e3)
		}
	}
	agg := aggregate(on.tr.spans)
	n := on.n
	d := counterDeltas(before, after)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms, us := time.Millisecond, time.Microsecond
	perOp := float64(len(withWarmup))
	m := map[string]metric{
		"cq.parse_us":                 {agg.mean("cq.parse", us), "us"},
		"cache.probe_us":              {agg.mean("cache.probe", us), "us"},
		"cache.lookup_us":             {agg.mean("cache.lookup", us), "us"},
		"cache.plan_hit_ratio":        {ratio(float64(n.lookupHits), float64(n.lookups)), "ratio"},
		"cache.compute_ms":            {agg.mean("cache.compute", ms), "ms"},
		"cache.computations":          {float64(n.computations), "count"},
		"cache.rekey_ms":              {agg.mean("cache.rekey", ms), "ms"},
		"cache.rekeyed":               {float64(n.rekeyed), "count"},
		"cost.discover_ms":            {agg.mean("cost.discover", ms), "ms"},
		"cost.weigh_ms":               {agg.mean("cost.weigh", ms), "ms"},
		"core.kvertices":              {float64(n.kvertices), "count"},
		"core.subproblems":            {float64(n.subprobs), "count"},
		"engine.colstore_ms":          {agg.mean("engine.colstore", ms), "ms"},
		"engine.reduce_ms":            {agg.mean("engine.reduce", ms), "ms"},
		"engine.intermediate_per_row": {ratio(float64(n.intermediate), float64(n.answerRows)), "ratio"},
		"engine.enumerate_rows_per_s": {ratio(float64(n.rows), agg.total["engine.enumerate"].Seconds()), "1/s"},
		"engine.batches":              {float64(n.batches), "count"},
		"db.delta_apply_ms":           {agg.mean("db.delta_apply", ms), "ms"},
		"db.analyze_ms":               {agg.mean("db.analyze", ms), "ms"},
		"server.encode_rows_per_s":    {ratio(float64(n.encodedRows), agg.total["server.encode"].Seconds()), "1/s"},
		"server.http_overhead_ms":     {median(httpMs) - median(off.n.opMs), "ms"},
		"ttfr_p50_ms":                 {median(firstMs), "ms"},
		"server.result_hit_ratio":     {ratio(float64(d["stats.result_hits"]), float64(d["stats.result_hits"]+d["stats.result_misses"])), "ratio"},
		"server.result_evictions":     {float64(d["stats.result_evictions"]), "count"},
		"cluster.peer_get_us":         {peerUs, "us"},
		"cluster.peer_fill_hit_ratio": {ratio(float64(d["stats.peer_fills"]), float64(d["stats.peer_fills"]+d["stats.peer_fill_misses"]+d["stats.peer_fill_errors"])), "ratio"},
		"trace.overhead_pct":          {(onDur.Seconds()/offDur.Seconds() - 1) * 100, "%"},
	}
	for _, k := range []string{"stats.plan_hits", "stats.plan_misses", "stats.plan_computations",
		"stats.result_hits", "stats.result_misses", "stats.result_too_large", "stats.peer_fills"} {
		m[k] = metric{float64(d[k]), "count"}
	}
	for _, l := range []string{"bench", "cq", "cache", "cost", "engine", "db", "server", "cluster"} {
		m[l+".self_ms"] = metric{agg.selfDur[l].Seconds() * 1e3 / perOp, "ms"}
	}
	path, err := writeSpans(cfg, w, on.tr.spans)
	if err != nil {
		return nil, err
	}
	reportTraced(cfg, w, m, len(on.tr.spans), path, peerHit, res)
	return &result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, nil
}

// writeSpans writes one JSON span per line under .bench_build/trace.
func writeSpans(cfg config, w *workload, spans []span) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func reportTraced(cfg config, w *workload, m map[string]metric, spans int, path string, peerHit float64, res *e2eResult) {
	e := os.Stderr
	fmt.Fprintf(e, "traced run of %s seed %d: %d operations, %d spans in %s\n", w.Name, cfg.seed, w.TraceOps, spans, path)
	for _, n := range sortedKeys(m) {
		v := m[n].Value
		if math.IsNaN(v) {
			v = 0
		}
		fmt.Fprintf(e, "  %-28s %14.4f %s\n", n, v, m[n].Unit)
	}
	fmt.Fprintf(e, "  peer gets answered           %14.4f\n", peerHit)
	fmt.Fprintf(e, "  verified %d of %d answers\n", res.attempted-res.failed, res.attempted)
	for i, err := range res.errs {
		if i == 5 {
			break
		}
		fmt.Fprintln(e, "  FAIL", err)
	}
}
