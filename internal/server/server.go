// Package server is the plan-as-a-service HTTP layer: the paper's premise
// is that a decomposition-based plan is expensive enough to compute once
// and reuse, and this subsystem is where the reuse happens at scale — a
// JSON API over the canonical-form Planner with per-tenant catalogs,
// request coalescing (the cache's singleflight on the canonical plan key),
// admission control, request timeouts, graceful shutdown, and Prometheus
// metrics export.
//
// Endpoints:
//
//	POST /v1/plan               query text + k → serialized optimal plan
//	POST /v1/decompose          hypergraph text + k → NF decomposition
//	POST /v2/execute            streaming execute (NDJSON header/rows/trailer)
//	PUT  /v1/catalogs/{tenant}  upload a catalog wholesale (db wire format)
//	PATCH /v1/catalogs/{tenant} apply a per-relation delta (data and/or
//	                            stats-only blocks; adaptive invalidation)
//	GET  /v1/catalogs/{tenant}  download the catalog (db wire format)
//	GET  /v1/catalogs           list tenants
//	GET  /v1/stats              planner + server counters (JSON)
//	GET  /metrics               Prometheus text exposition
//	GET  /healthz               liveness probe (alias /v1/healthz)
//	GET  /v1/readyz             readiness probe (store, ring, limiter)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/store"
)

// Config tunes a Server. The zero value selects sensible defaults.
type Config struct {
	// Planner tunes the Planner(s) behind the service (capacity, shards,
	// Ψ guard). A zero MaxKVertices is replaced by DefaultMaxPsi:
	// a public endpoint must bound the candidate space.
	Planner cache.Options
	// IsolateTenants gives each tenant a private Planner. The default
	// (false) shares one Planner across tenants, so structurally identical
	// queries coalesce service-wide; plans are still keyed by statistics,
	// so tenants never see each other's data.
	IsolateTenants bool
	// DefaultK is the width bound applied when a request omits k (default 3).
	DefaultK int
	// MaxK rejects requests with k above the bound (default 8).
	MaxK int
	// RequestTimeout bounds end-to-end request handling (default 30s;
	// negative disables).
	RequestTimeout time.Duration
	// ShutdownTimeout bounds graceful shutdown (default 5s).
	ShutdownTimeout time.Duration
	// MaxInFlight bounds concurrently served requests; excess requests are
	// rejected with 429 (default 256; negative disables).
	MaxInFlight int
	// Admission layers per-tenant token-bucket budgets and priority
	// shedding on top of the global limiter. The zero value disables both.
	Admission AdmissionConfig
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// ResultCacheBytes bounds the result cache: complete query answers
	// keyed by (tenant, catalog version, plan key), so a repeat — or
	// renamed-variant — execute skips planning and evaluation entirely.
	// 0 selects the 64 MiB default; negative disables result caching.
	ResultCacheBytes int64
	// Cluster, when non-nil, joins this server to a static-membership
	// cluster: plan keys are sharded over the members by consistent
	// hashing, and misses try the owning replica's warm cache before a
	// cold search. Requires the default shared-planner mode (plan records
	// are tenant-agnostic; the key already embeds statistics).
	Cluster *ClusterConfig
	// DataDir, when non-empty, persists plan and negative-cache records
	// to an append-only store there and warm-loads the cache from it at
	// construction. Also requires shared-planner mode.
	DataDir string
	// StoreOptions tunes the persistent store (segment size, retention).
	StoreOptions store.Options
	// Log receives lifecycle messages; nil disables logging.
	Log *log.Logger
}

// DefaultMaxPsi is the default candidate-space guard for served searches.
const DefaultMaxPsi = 1 << 20

func (c Config) withDefaults() Config {
	if c.Planner.MaxKVertices == 0 {
		c.Planner.MaxKVertices = DefaultMaxPsi
	}
	if c.DefaultK == 0 {
		c.DefaultK = 3
	}
	if c.MaxK == 0 {
		c.MaxK = 8
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ShutdownTimeout == 0 {
		c.ShutdownTimeout = 5 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	return c
}

// Server serves the planner and engine over HTTP. Construct with New; all
// methods are safe for concurrent use.
type Server struct {
	cfg       Config
	planners  *cache.PlannerSet
	catalogs  *db.Registry
	metrics   *metricsRegistry
	limiter   chan struct{}
	admit     *admission     // nil unless Config.Admission enables it
	dist      *distTier      // nil unless Cluster or DataDir is configured
	results   *resultCache   // nil when ResultCacheBytes < 0
	colstores *colStoreCache // shared columnar snapshots per (tenant, version)

	addr      atomic.Value // net.Addr, set by Serve
	closeOnce sync.Once
}

// New returns a Server with the given configuration. It panics if the
// distributed tier (Cluster/DataDir) is configured but cannot start; use
// Open to handle those errors. Configurations without a distributed tier
// never fail.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open returns a Server with the given configuration, starting the
// distributed tier (persistent store warm-load, peer RPC listener, health
// prober) when one is configured.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		planners: cache.NewPlannerSet(cfg.Planner, cfg.IsolateTenants),
		catalogs: db.NewRegistry(),
		metrics: newMetricsRegistry([]string{
			"plan", "decompose", "execute_stream", "catalogs", "stats", "metrics", "healthz", "readyz",
		}),
		results:   newResultCache(cfg.ResultCacheBytes),
		colstores: newColStoreCache(0),
	}
	if cfg.MaxInFlight > 0 {
		s.limiter = make(chan struct{}, cfg.MaxInFlight)
	}
	s.admit = newAdmission(cfg.Admission, s.limiter)
	if cfg.Cluster != nil || cfg.DataDir != "" {
		if cfg.IsolateTenants {
			s.Close()
			return nil, errors.New("server: clustering/persistence requires the shared-planner mode (IsolateTenants=false)")
		}
		dist, err := newDistTier(cfg, s.planners.For(""))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.dist = dist
	}
	return s, nil
}

// NodeID returns this replica's cluster identity, or "" outside a cluster.
func (s *Server) NodeID() string { return s.dist.nodeID() }

// PeerAddr returns the bound peer RPC address, or "" outside a cluster.
func (s *Server) PeerAddr() string {
	if s.dist == nil || s.dist.peerLn == nil {
		return ""
	}
	return s.dist.peerLn.Addr().String()
}

// PlannerStats snapshots the aggregate planner counters (summed over
// tenants in isolated mode).
func (s *Server) PlannerStats() cache.Stats { return s.planners.Aggregate() }

// LimiterInUse reports the number of admission slots currently held (0 when
// the limiter is disabled). The chaos harness asserts it returns to zero
// after load: accepted + rejected must equal offered with no leaked slots.
func (s *Server) LimiterInUse() int {
	if s.limiter == nil {
		return 0
	}
	return len(s.limiter)
}

// Handler returns the fully wired HTTP handler (for embedding or tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/plan", s.route("plan", true, s.handlePlan))
	mux.Handle("POST /v1/decompose", s.route("decompose", true, s.handleDecompose))
	// /v2/execute streams: it must not run under http.TimeoutHandler, which
	// buffers the whole response and hides http.Flusher. A context-deadline
	// wrapper bounds it instead, checked between row batches.
	mux.Handle("POST /v2/execute", s.instrument("execute_stream", true,
		s.streamDeadline(http.HandlerFunc(s.handleExecuteStream))))
	mux.Handle("PUT /v1/catalogs/{tenant}", s.route("catalogs", true, s.handleCatalogPut))
	mux.Handle("PATCH /v1/catalogs/{tenant}", s.route("catalogs", true, s.handleCatalogPatch))
	mux.Handle("GET /v1/catalogs/{tenant}", s.route("catalogs", true, s.handleCatalogGet))
	mux.Handle("GET /v1/catalogs", s.route("catalogs", true, s.handleCatalogList))
	mux.Handle("GET /v1/stats", s.route("stats", false, s.handleStats))
	mux.Handle("GET /metrics", s.route("metrics", false, s.handleMetrics))
	mux.Handle("GET /healthz", s.route("healthz", false, s.handleHealthz))
	mux.Handle("GET /v1/healthz", s.route("healthz", false, s.handleHealthz))
	mux.Handle("GET /v1/readyz", s.route("readyz", false, s.handleReadyz))
	return mux
}

// route applies the request timeout inside the instrumentation, so metrics
// record the status the client actually received (503 on timeout, not the
// late inner write).
func (s *Server) route(endpoint string, limited bool, h http.HandlerFunc) http.Handler {
	return s.routeHandler(endpoint, limited, h)
}

func (s *Server) routeHandler(endpoint string, limited bool, h http.Handler) http.Handler {
	if s.cfg.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, s.cfg.RequestTimeout,
			`{"error":{"code":"timeout","message":"request timed out"}}`)
	}
	return s.instrument(endpoint, limited, h)
}

// ListenAndServe serves on addr until ctx is canceled, then shuts down
// gracefully. addr may use port 0; the bound address is available from
// Addr and the log line.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// Serve serves on l until ctx is canceled, then drains in-flight requests
// (bounded by ShutdownTimeout) and releases background resources.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	s.addr.Store(l.Addr())
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("listening on http://%s", l.Addr())
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case <-ctx.Done():
		// Chaos: stall between the shutdown signal and the drain — requests
		// keep arriving at a server that has already decided to die.
		chaos.Hit(chaos.ServerShutdown, chaos.Delay)
		sc, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		err := hs.Shutdown(sc)
		<-errc
		s.Close()
		if s.cfg.Log != nil {
			s.cfg.Log.Printf("shut down")
		}
		return err
	case err := <-errc:
		s.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// Addr returns the bound address once Serve has been called, else nil.
func (s *Server) Addr() net.Addr {
	a, _ := s.addr.Load().(net.Addr)
	return a
}

// Close releases background resources — the push queue, the peer RPC
// server and client, and the persistent store (idempotent; Serve calls it).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.dist != nil {
			s.dist.teardown()
		}
	})
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush passes through so streaming handlers can push NDJSON frames as
// they are produced (http.ResponseWriter's Flusher would otherwise be
// hidden by the wrapper).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with admission control (when limited) and
// request metrics.
func (s *Server) instrument(endpoint string, limited bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if limited && s.limiter != nil {
			select {
			case s.limiter <- struct{}{}:
				defer func() { <-s.limiter }()
			default:
				// Counted, but kept out of the latency histogram: a burst
				// of instant 429s would drag the percentiles toward zero
				// exactly when the latency of served requests matters.
				s.metrics.count(endpoint, http.StatusTooManyRequests)
				w.Header().Set("Retry-After", "1")
				writeErrorRetry(w, http.StatusTooManyRequests, 1, "server at capacity (%d in flight)", s.cfg.MaxInFlight)
				return
			}
		}
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		// Chaos: handler latency after admission — the injected sleep holds
		// an admission slot, so sustained injection starves the limiter and
		// forces 429s on the offered load behind it.
		chaos.Hit(chaos.ServerHandler, chaos.Delay)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.record(endpoint, code, time.Since(start))
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// errorCode maps an HTTP status onto the envelope's stable machine code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusUnprocessableEntity:
		return "infeasible"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

func errorObject(status int, format string, args ...any) ErrorObject {
	return ErrorObject{Code: errorCode(status), Message: fmt.Sprintf(format, args...)}
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: errorObject(code, format, args...)})
}

// writeErrorRetry is writeError plus the advised backoff, mirrored in the
// envelope and (by the callers) the Retry-After header.
func writeErrorRetry(w http.ResponseWriter, code, retrySecs int, format string, args ...any) {
	obj := errorObject(code, format, args...)
	obj.RetryAfter = retrySecs
	writeJSON(w, code, ErrorResponse{Error: obj})
}

// decode reads a JSON body into v, reporting (and writing) failures.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// widthBound resolves and validates the request's k.
func (s *Server) widthBound(w http.ResponseWriter, k int) (int, bool) {
	if k == 0 {
		k = s.cfg.DefaultK
	}
	if k < 1 || k > s.cfg.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", s.cfg.MaxK, k)
		return 0, false
	}
	return k, true
}

// tenantCatalog resolves the tenant's catalog, writing a 404 when absent.
func (s *Server) tenantCatalog(w http.ResponseWriter, tenant string) (*db.Catalog, uint64, bool) {
	cat, ver, ok := s.catalogs.Get(tenant)
	if !ok {
		writeError(w, http.StatusNotFound, "no catalog for tenant %q", tenant)
		return nil, 0, false
	}
	return cat, ver, true
}

// planError maps planning failures onto status codes.
func planError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrNoDecomposition):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// plan runs the planning path shared by /v1/plan and /v2/execute: the
// request is canonicalized exactly once into a PlanProbe, and every later
// stage — warm lookup, peer warm-fill, the cold search — works from that
// probe. Uncacheable queries (unaliased self-joins) bypass probe and ring
// on the planner's direct path.
func (s *Server) plan(ctx context.Context, tenant string, q *cq.Query, cat *db.Catalog, k int) (*cost.Plan, bool, error) {
	planner := s.planners.For(tenant)
	probe, err := planner.ProbePlan(q, cat, k)
	if err != nil {
		if errors.Is(err, cache.ErrUncacheable) {
			return planner.PlanCached(q, cat, k)
		}
		return nil, false, err
	}
	return s.planProbed(ctx, planner, probe)
}

// planProbed serves an already-canonicalized request: warm-local → peer
// warm-fill → cold, with the distributed tier's write-through persistence
// and owner push after a cold result. The cold search coalesces in the
// Planner's singleflight on the canonical plan key, so concurrent renamed
// and alias-renamed variants of one structure share a single computation.
func (s *Server) planProbed(ctx context.Context, planner *cache.Planner, probe *cache.PlanProbe) (*cost.Plan, bool, error) {
	if plan, ok, err := planner.LookupPlan(probe); ok {
		return plan, true, err
	}
	if s.dist != nil {
		if hit, plan, herr := s.dist.peerFill(ctx, probe); hit {
			return plan, true, herr
		}
	}
	plan, hit, err := planner.ComputePlan(probe)
	if s.dist != nil {
		s.dist.afterCold(probe, err)
	}
	return plan, hit, err
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !s.decode(w, r, &req) {
		return
	}
	if ok, reason, retry := s.admit.admit(req.Tenant); !ok {
		shed(w, req.Tenant, reason, retry)
		return
	}
	q, err := cq.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, ok := s.widthBound(w, req.K)
	if !ok {
		return
	}
	cat, ver, ok := s.tenantCatalog(w, req.Tenant)
	if !ok {
		return
	}
	s.nodeHeader(w)
	plan, hit, err := s.plan(r.Context(), req.Tenant, q, cat, k)
	if err != nil {
		planError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PlanResponse{
		Tenant:         req.Tenant,
		K:              k,
		Width:          plan.Decomp.Width(),
		EstimatedCost:  plan.EstimatedCost,
		CacheHit:       hit,
		CatalogVersion: ver,
		Node:           s.dist.nodeID(),
		Plan:           engine.SerializeDecomposition(plan.Decomp, plan.NodeCosts),
	})
}

// nodeHeader stamps the serving replica's identity on the response, so
// load-balanced clients can tell which node answered (and assert peer
// fills in the cluster smoke tests).
func (s *Server) nodeHeader(w http.ResponseWriter) {
	if id := s.dist.nodeID(); id != "" {
		w.Header().Set("X-Planserver-Node", id)
	}
}

func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	var req DecomposeRequest
	if !s.decode(w, r, &req) {
		return
	}
	h, err := hypergraph.Parse(req.Hypergraph)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, ok := s.widthBound(w, req.K)
	if !ok {
		return
	}
	d, hit, err := s.planners.For(req.Tenant).DecomposeCached(h, k)
	if err != nil {
		planError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DecomposeResponse{
		K:             k,
		Width:         d.Width(),
		CacheHit:      hit,
		Decomposition: engine.SerializeDecomposition(d, nil),
	})
}

func (s *Server) handleCatalogPut(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if tenant == "" {
		writeError(w, http.StatusBadRequest, "empty tenant")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	cat, err := db.ReadCatalog(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(cat.Names()) == 0 {
		writeError(w, http.StatusBadRequest, "catalog has no relations")
		return
	}
	if err := cat.AnalyzeAll(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Chaos: widen the window between analysis and publication, so catalog
	// PUTs race in-flight plans on the same tenant for as long as possible.
	chaos.Hit(chaos.ServerCatalogPut, chaos.Delay)
	version, err := s.catalogs.Put(tenant, cat)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The version bump already keeps new executes from matching old result
	// keys; purge eagerly so stale answers and columnar snapshots stop
	// holding memory the moment they become unreachable.
	s.results.purgeTenant(tenant)
	s.colstores.purgeTenant(tenant)
	tuples := 0
	for _, n := range cat.Names() {
		tuples += cat.Get(n).Card()
	}
	writeJSON(w, http.StatusOK, CatalogResponse{
		Tenant:    tenant,
		Relations: len(cat.Names()),
		Tuples:    tuples,
		Version:   version,
	})
}

// handleCatalogPatch is PATCH /v1/catalogs/{tenant}: a per-relation delta
// in the db wire format — `relation` blocks replace one relation's data,
// `analyze` blocks override one relation's statistics. Only the touched
// relations are re-ANALYZEd; the delta is applied to a copy-on-write clone
// of the published snapshot and swapped in by compare-and-put, so the
// Registry's publish-immutable contract holds and concurrent readers keep
// a consistent view. An optional ?ifVersion=N pins the base version:
// a mismatch answers 409 with the "conflict" envelope instead of
// retrying. Invalidation is adaptive, not scorched-earth — see
// applyDeltaInvalidation.
func (s *Server) handleCatalogPatch(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if tenant == "" {
		writeError(w, http.StatusBadRequest, "empty tenant")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	delta, err := db.ReadCatalogDelta(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if delta.Empty() {
		writeError(w, http.StatusBadRequest, "delta has no relation or analyze blocks")
		return
	}
	var ifVersion uint64
	pinned := false
	if v := r.URL.Query().Get("ifVersion"); v != "" {
		ifVersion, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad ifVersion %q", v)
			return
		}
		pinned = true
	}
	// Unpinned deltas retry the read-apply-publish sequence on CAS losses;
	// a bounded number of attempts keeps a PATCH storm from spinning.
	for attempt := 0; attempt < 8; attempt++ {
		cat, base, ok := s.catalogs.Get(tenant)
		if !ok {
			writeError(w, http.StatusNotFound, "no catalog for tenant %q", tenant)
			return
		}
		if pinned && base != ifVersion {
			writeError(w, http.StatusConflict, "catalog at version %d, delta pinned to %d", base, ifVersion)
			return
		}
		next := cat.Clone()
		dataChanged, statsChanged, err := next.ApplyDelta(delta)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Chaos: widen the window between applying the delta and publishing
		// it, so concurrent PATCHes and PUTs race the compare-and-put.
		chaos.Hit(chaos.ServerCatalogPut, chaos.Delay)
		version, err := s.catalogs.CompareAndPut(tenant, base, next)
		if errors.Is(err, db.ErrVersionConflict) {
			if pinned {
				writeError(w, http.StatusConflict, "catalog changed while applying delta (base version %d)", base)
				return
			}
			continue
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rekeyed := s.applyDeltaInvalidation(tenant, base, version, next, dataChanged, statsChanged)
		writeJSON(w, http.StatusOK, CatalogDeltaResponse{
			Tenant:       tenant,
			BaseVersion:  base,
			Version:      version,
			DataChanged:  dataChanged,
			StatsChanged: statsChanged,
			PlansRekeyed: rekeyed,
		})
		return
	}
	writeError(w, http.StatusConflict, "catalog for tenant %q kept changing; delta not applied", tenant)
}

// applyDeltaInvalidation is the adaptive-invalidation half of a delta,
// run after the new catalog version is published. Where a wholesale PUT
// nukes every derived artifact, a delta invalidates by relation class:
//
//   - Plan cache: stats-only changes leave cached structures valid, so hot
//     entries are re-keyed in place (renamed-variant hits survive with zero
//     new computations); entries referencing a data-changed relation age
//     out and recompute.
//   - Result cache: answers for plans referencing a data-changed relation
//     are dropped; every other entry is carried to the new catalog version
//     (stats-referencing keys are restatted), so unaffected answers keep
//     serving.
//   - Column store: the warm store is cloned for the new version carrying
//     the columnar state and shared hash indexes of untouched relations —
//     only the touched relation's artifacts rebuild — and every
//     superseded version of the tenant is dropped so old stores never
//     strand columnar snapshots.
func (s *Server) applyDeltaInvalidation(tenant string, base, version uint64, cat *db.Catalog, dataChanged, statsChanged []string) int {
	rekeyed := s.planners.For(tenant).RekeyPlans(cat, statsChanged, dataChanged)
	s.results.applyDelta(tenant, base, version, cat, dataChanged, statsChanged)
	s.colstores.advance(tenant, version, cat, dataChanged)
	return rekeyed
}

func (s *Server) handleCatalogGet(w http.ResponseWriter, r *http.Request) {
	cat, _, ok := s.tenantCatalog(w, r.PathValue("tenant"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := db.WriteCatalog(w, cat); err != nil && s.cfg.Log != nil {
		s.cfg.Log.Printf("catalog download: %v", err)
	}
}

func (s *Server) handleCatalogList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CatalogListResponse{Tenants: s.catalogs.Tenants()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Planner:   s.planners.Aggregate(),
		Catalogs:  s.catalogs.Tenants(),
		InFlight:  s.metrics.inFlight.Load(),
		UptimeSec: time.Since(s.metrics.start).Seconds(),
	}
	if s.planners.Isolated() {
		resp.PerTenant = s.planners.StatsByTenant()
	}
	resp.Admission = s.admit.stats()
	resp.Results = s.results.stats()
	if s.dist != nil {
		resp.Cluster = s.dist.clusterStats()
		resp.Store = s.dist.storeStats()
	}
	s.nodeHeader(w)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.planners.Aggregate(), s.catalogs.Len())
	s.admit.writeMetrics(w)
	s.results.writeMetrics(w)
	if s.dist != nil {
		s.dist.writeMetrics(w)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe for load-balancer integration.
// Liveness (healthz) answers "is the process up"; readiness answers "should
// this replica receive traffic": the persistent store warm-loaded, the
// ring membership resolved (both settled at construction — a Server that
// failed either never came up), and the admission limiter not saturated.
// A saturated replica stays alive but asks the balancer to route around it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	checks := map[string]string{"store": "none", "cluster": "none", "limiter": "ok"}
	if s.dist != nil && s.dist.store != nil {
		checks["store"] = "ok"
	}
	if s.dist != nil && s.dist.ring != nil {
		checks["cluster"] = "ok"
	}
	ready := true
	if s.limiter != nil && len(s.limiter) >= cap(s.limiter) {
		checks["limiter"] = "saturated"
		ready = false
	}
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, ReadyzResponse{Ready: ready, Checks: checks})
}
