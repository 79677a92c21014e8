package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
)

// The execute path. POST /v2/execute streams the answer as NDJSON frames —
// header, row chunks, trailer — so a large answer never has to exist in
// server memory at once. It consults the result cache before planning: a
// repeat (or renamed-variant) execute on an unchanged catalog replays the
// cached rows without planning or evaluating.

// execPrep is the execute handler's state once the request has cleared
// decoding, admission, parsing, width validation, catalog lookup, and the
// result-cache probe. Exactly one of cached/plan is set.
type execPrep struct {
	req     ExecuteRequest
	q       *cq.Query
	k       int
	cat     *db.Catalog
	version uint64
	resKey  string       // "" when the result cache cannot key this request
	cached  *resultEntry // non-nil: answer served from the result cache
	plan    *cost.Plan   // non-nil: evaluate this plan
	planHit bool         // plan served from the plan cache
}

// prepareExecute runs everything up to (but not including) evaluation. On
// any failure it has already written the error response and returns ok =
// false. On a result-cache hit planning is skipped entirely — the probe
// (cheap canonicalization, no search) is all it costs to find out.
func (s *Server) prepareExecute(w http.ResponseWriter, r *http.Request) (*execPrep, bool) {
	p := &execPrep{}
	if !s.decode(w, r, &p.req) {
		return nil, false
	}
	if ok, reason, retry := s.admit.admit(p.req.Tenant); !ok {
		shed(w, p.req.Tenant, reason, retry)
		return nil, false
	}
	q, err := cq.Parse(p.req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	p.q = q
	k, ok := s.widthBound(w, p.req.K)
	if !ok {
		return nil, false
	}
	p.k = k
	p.cat, p.version, ok = s.tenantCatalog(w, p.req.Tenant)
	if !ok {
		return nil, false
	}
	s.nodeHeader(w)
	// One probe serves the whole request: the result-cache key (same key ⇒
	// same canonical structure, statistics, width bound, and catalog
	// version ⇒ same answer, positionally) and — on a result miss — the
	// plan path, which never re-canonicalizes. A probe error other than
	// ErrUncacheable (unaliased self-joins, which fall to the planner's
	// direct path with no result caching) fails the request.
	planner := s.planners.For(p.req.Tenant)
	probe, perr := planner.ProbePlan(q, p.cat, k)
	if perr == nil {
		p.resKey = resultKey(p.req.Tenant, p.version, probe.Key)
		if e, hit := s.results.get(p.resKey); hit {
			p.cached = e
			return p, true
		}
	}
	var plan *cost.Plan
	var hit bool
	switch {
	case perr == nil:
		plan, hit, err = s.planProbed(r.Context(), planner, probe)
	case errors.Is(perr, cache.ErrUncacheable):
		plan, hit, err = planner.PlanCached(q, p.cat, k)
	default:
		err = perr
	}
	if err != nil {
		planError(w, err)
		return nil, false
	}
	p.plan, p.planHit = plan, hit
	return p, true
}

// openStream builds the streaming evaluator for a prepared request, reusing
// the catalog snapshot's shared column store so hash indexes built for one
// request serve the next.
func (s *Server) openStream(p *execPrep, m *engine.Metrics) (*engine.Stream, error) {
	cs := s.colstores.storeFor(p.req.Tenant, p.version, p.cat)
	return engine.EvalDecompositionStreamWith(cs, p.plan.Decomp, p.plan.Query, m)
}

// streamDeadline bounds a streaming handler with a request-context deadline
// instead of http.TimeoutHandler (which buffers the response and hides
// http.Flusher). The handler checks the context between row batches and
// converts expiry into a well-formed error trailer.
func (s *Server) streamDeadline(h http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// handleExecuteStream is POST /v2/execute: NDJSON frames
// header → rows* → trailer, flushed as produced. The trailer is the source
// of truth for completion — a mid-stream fault yields status "error" with
// the shared envelope, never a silently truncated 200.
func (s *Server) handleExecuteStream(w http.ResponseWriter, r *http.Request) {
	p, ok := s.prepareExecute(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	emit := func(frame any) {
		_ = enc.Encode(frame)
		if flusher != nil {
			flusher.Flush()
		}
	}

	head := ExecStreamHeader{
		Frame:          "header",
		Tenant:         p.req.Tenant,
		K:              p.k,
		CacheHit:       true,
		CatalogVersion: p.version,
		Node:           s.dist.nodeID(),
		IsBoolean:      p.q.IsBoolean(),
	}
	if !p.q.IsBoolean() {
		head.Columns = p.q.Out
	}

	// Result-cache hit: replay the cached rows as row chunks. Only the
	// column labels come from this request; the row data is shared.
	if p.cached != nil {
		head.EstimatedCost = p.cached.estimatedCost
		head.ResultCached = true
		emit(head)
		n := 0
		for n < len(p.cached.rows) {
			end := min(n+engine.BatchSize, len(p.cached.rows))
			emit(ExecStreamRows{Frame: "rows", Rows: p.cached.rows[n:end]})
			n = end
		}
		emit(ExecStreamTrailer{
			Frame: "trailer", Status: "ok",
			RowCount: len(p.cached.rows), Boolean: p.cached.boolean,
		})
		return
	}

	head.EstimatedCost = p.plan.EstimatedCost
	head.CacheHit = p.planHit
	var m engine.Metrics
	st, err := s.openStream(p, &m)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer st.Close()
	emit(head)

	// From here on the 200 header is on the wire; failures must surface in
	// the trailer, not a status code.
	fail := func(status int, format string, args ...any) {
		obj := errorObject(status, format, args...)
		emit(ExecStreamTrailer{Frame: "trailer", Status: "error", Error: &obj})
	}

	// Collect rows for the result cache only while under the per-entry cap;
	// past it the answer was never cacheable, so stop holding it.
	collect := p.resKey != ""
	var rows [][]db.Value
	var collected int64
	maxBytes := s.cfg.ResultCacheBytes / 4

	rowCount := 0
	for {
		if err := r.Context().Err(); err != nil {
			fail(http.StatusGatewayTimeout, "request timed out mid-stream: %v", err)
			return
		}
		batch, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fail(http.StatusInternalServerError, "%v", err)
			return
		}
		rowCount += len(batch)
		if !p.q.IsBoolean() && len(batch) > 0 {
			emit(ExecStreamRows{Frame: "rows", Rows: batch})
		}
		if collect {
			for _, row := range batch {
				collected += 24 + 4*int64(len(row))
			}
			if collected > maxBytes {
				collect, rows = false, nil
			} else {
				rows = append(rows, batch...)
			}
		}
	}

	trailer := ExecStreamTrailer{
		Frame: "trailer", Status: "ok", RowCount: rowCount,
		Metrics: &ExecuteMetrics{
			Joins:              m.Joins,
			Semijoins:          m.Semijoins,
			IntermediateTuples: m.IntermediateTuples,
			Batches:            m.Batches,
		},
	}
	var boolAns *bool
	if val, isBool := st.Boolean(); isBool {
		boolAns = &val
		trailer.Boolean = boolAns
		trailer.RowCount = 0
		rowCount = 0
		rows = nil
	}
	// Cached rows are in head positional order: the engine emits q.Out
	// order, and the plan key pins the canonical head order across renamed
	// variants.
	if collect || (boolAns != nil && p.resKey != "") {
		s.results.put(p.resKey, rows, boolAns, p.plan.EstimatedCost)
	}
	emit(trailer)
}
