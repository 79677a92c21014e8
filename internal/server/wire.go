package server

import (
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/store"
)

// Wire types of the HTTP/JSON API. Field names are the contract; see the
// README's "Serving" section for curl examples.

// PlanRequest is the body of POST /v1/plan: a conjunctive query in datalog
// rule syntax planned at width bound k over the tenant's catalog.
type PlanRequest struct {
	Tenant string `json:"tenant"`
	Query  string `json:"query"`
	K      int    `json:"k,omitempty"` // 0 = server default
}

// PlanResponse carries the serialized optimal plan. CacheHit reports
// whether the planner served the request without running a new search
// (plan-cache or negative-cache hit, or a joined singleflight).
type PlanResponse struct {
	Tenant         string           `json:"tenant"`
	K              int              `json:"k"`
	Width          int              `json:"width"`
	EstimatedCost  float64          `json:"estimatedCost"`
	CacheHit       bool             `json:"cacheHit"`
	CatalogVersion uint64           `json:"catalogVersion"`
	Node           string           `json:"node,omitempty"` // serving replica's cluster id
	Plan           *engine.PlanNode `json:"plan"`
}

// DecomposeRequest is the body of POST /v1/decompose: a hypergraph in the
// "name(V1,V2,...)"-per-line format, decomposed at width bound k.
type DecomposeRequest struct {
	Tenant     string `json:"tenant,omitempty"` // planner selection only; no catalog involved
	Hypergraph string `json:"hypergraph"`
	K          int    `json:"k,omitempty"`
}

// DecomposeResponse carries a width-≤k normal-form decomposition.
type DecomposeResponse struct {
	K             int              `json:"k"`
	Width         int              `json:"width"`
	CacheHit      bool             `json:"cacheHit"`
	Decomposition *engine.PlanNode `json:"decomposition"`
}

// ExecuteRequest is the body of POST /v2/execute: plan (through the cache)
// and evaluate a query against the tenant's catalog.
type ExecuteRequest struct {
	Tenant string `json:"tenant"`
	Query  string `json:"query"`
	K      int    `json:"k,omitempty"`
}

// ExecuteMetrics mirrors engine.Metrics on the wire.
type ExecuteMetrics struct {
	Joins              int   `json:"joins"`
	Semijoins          int   `json:"semijoins"`
	IntermediateTuples int64 `json:"intermediateTuples"`
	Batches            int64 `json:"batches,omitempty"` // streaming engine row batches
}

// ExecStreamHeader is the first NDJSON frame of a POST /v2/execute
// response: everything known before the first row batch. IsBoolean
// distinguishes "Boolean query" (answer arrives in the trailer) from "zero
// columns".
type ExecStreamHeader struct {
	Frame          string   `json:"frame"` // "header"
	Tenant         string   `json:"tenant"`
	K              int      `json:"k"`
	EstimatedCost  float64  `json:"estimatedCost"`
	CacheHit       bool     `json:"cacheHit"`
	ResultCached   bool     `json:"resultCached,omitempty"`
	CatalogVersion uint64   `json:"catalogVersion"`
	Node           string   `json:"node,omitempty"`
	Columns        []string `json:"columns,omitempty"`
	IsBoolean      bool     `json:"isBoolean,omitempty"`
}

// ExecStreamRows is a row-chunk frame: at most the engine's batch size of
// answer rows, in column order of the header frame.
type ExecStreamRows struct {
	Frame string    `json:"frame"` // "rows"
	Rows  [][]int32 `json:"rows"`
}

// ExecStreamTrailer is the final NDJSON frame: terminal status, the row
// count actually streamed, the Boolean answer when applicable, evaluation
// metrics, and — status "error" — the error envelope. A response without a
// trailer (or with status "error") must never be treated as a complete
// answer, whatever rows preceded it.
type ExecStreamTrailer struct {
	Frame    string          `json:"frame"`  // "trailer"
	Status   string          `json:"status"` // "ok" | "error"
	RowCount int             `json:"rowCount"`
	Boolean  *bool           `json:"boolean,omitempty"`
	Metrics  *ExecuteMetrics `json:"metrics,omitempty"`
	Error    *ErrorObject    `json:"error,omitempty"`
}

// CatalogResponse acknowledges PUT /v1/catalogs/{tenant}.
type CatalogResponse struct {
	Tenant    string `json:"tenant"`
	Relations int    `json:"relations"`
	Tuples    int    `json:"tuples"`
	Version   uint64 `json:"version"`
}

// CatalogDeltaResponse acknowledges PATCH /v1/catalogs/{tenant}: the new
// version, the version the delta was applied against, which relations
// changed data vs. statistics only, and how many warm plan-cache entries
// were re-keyed in place rather than invalidated.
type CatalogDeltaResponse struct {
	Tenant       string   `json:"tenant"`
	BaseVersion  uint64   `json:"baseVersion"`
	Version      uint64   `json:"version"`
	DataChanged  []string `json:"dataChanged,omitempty"`
	StatsChanged []string `json:"statsChanged,omitempty"`
	PlansRekeyed int      `json:"plansRekeyed"`
}

// CatalogListResponse is GET /v1/catalogs.
type CatalogListResponse struct {
	Tenants []string `json:"tenants"`
}

// StatsResponse is GET /v1/stats: aggregate planner counters, per-tenant
// counters when tenants are isolated, server-level gauges, and — on a
// distributed replica — the cluster and store sections.
type StatsResponse struct {
	Planner   cache.Stats             `json:"planner"`
	PerTenant map[string]cache.Stats  `json:"perTenant,omitempty"`
	Catalogs  []string                `json:"catalogs"`
	InFlight  int64                   `json:"inFlight"`
	UptimeSec float64                 `json:"uptimeSec"`
	Admission *AdmissionStatsResponse `json:"admission,omitempty"`
	Results   *ResultCacheStats       `json:"results,omitempty"`
	Cluster   *ClusterStatsResponse   `json:"cluster,omitempty"`
	Store     *StoreStatsResponse     `json:"store,omitempty"`
}

// ResultCacheStats is the result-cache section of /v1/stats.
type ResultCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Inserts   uint64 `json:"inserts"`
	Evictions uint64 `json:"evictions"`
	TooLarge  uint64 `json:"tooLarge"` // answers skipped for exceeding the per-entry cap
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// AdmissionStatsResponse is the tenant-admission section of /v1/stats:
// how many plan-serving requests were shed, split by cause, plus the
// per-tenant shed counters behind planserver_tenant_shed_total.
type AdmissionStatsResponse struct {
	ShedBudget   uint64            `json:"shedBudget"`   // tenant token bucket empty
	ShedPriority uint64            `json:"shedPriority"` // priority class shed under load
	PerTenant    map[string]uint64 `json:"perTenant,omitempty"`
}

// ClusterStatsResponse is the cluster section of /v1/stats: this node's
// identity and keyspace share, the ring membership, peer health, and the
// warm-fill/push counters.
type ClusterStatsResponse struct {
	Node            string            `json:"node"`
	PeerAddr        string            `json:"peerAddr"`
	Members         []cluster.Member  `json:"members"`
	Replicas        int               `json:"replicas"` // owners per plan key
	OwnedShare      float64           `json:"ownedShare"`
	PeerHealthy     map[string]bool   `json:"peerHealthy"` // breaker not open
	PeerBreaker     map[string]string `json:"peerBreaker"` // closed | half-open | open
	PeerFills       uint64            `json:"peerFills"`   // plans + negatives served warm from a peer
	PeerFillMisses  uint64            `json:"peerFillMisses"`
	PeerFillErrors  uint64            `json:"peerFillErrors"`
	PeerFillHitRate float64           `json:"peerFillHitRate"` // fills / fetch attempts
	PeerServes      uint64            `json:"peerServes"`      // warm answers served to peers
	PeerImports     uint64            `json:"peerImports"`     // records installed by peer pushes
	PushesSent      uint64            `json:"pushesSent"`
	PushesDropped   uint64            `json:"pushesDropped"`
	PushErrors      uint64            `json:"pushErrors"`
	HintsQueued     uint64            `json:"hintsQueued"`   // pushes parked for handoff
	HintsDropped    uint64            `json:"hintsDropped"`  // hints refused by the queue cap
	HintsReplayed   uint64            `json:"hintsReplayed"` // hints delivered after a heal
	HintErrors      uint64            `json:"hintErrors"`
	HintsPending    int               `json:"hintsPending"`
}

// StoreStatsResponse is the store section of /v1/stats: the on-disk shape
// plus the boot-time warm-load outcome.
type StoreStatsResponse struct {
	store.Stats
	LoadSeconds     float64 `json:"loadSeconds"`
	LoadedPlans     int     `json:"loadedPlans"`
	LoadedNegatives int     `json:"loadedNegatives"`
	AppendErrors    uint64  `json:"appendErrors"`
}

// ReadyzResponse is GET /v1/readyz: overall readiness plus the individual
// checks ("ok", "none" for an unconfigured subsystem, or a failure word).
type ReadyzResponse struct {
	Ready  bool              `json:"ready"`
	Checks map[string]string `json:"checks"`
}

// ErrorObject is the error envelope shared by every endpoint, v1 and v2:
// a stable machine-readable code, a human-readable message, and — for
// rate-limited requests — the advised backoff in whole seconds (mirroring
// the Retry-After header).
//
// Codes: bad_request, not_found, conflict, infeasible, rate_limited,
// timeout, unavailable, internal.
type ErrorObject struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	RetryAfter int    `json:"retryAfter,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON reply; on /v2/execute
// the same envelope rides inside the error trailer frame instead.
type ErrorResponse struct {
	Error ErrorObject `json:"error"`
}
