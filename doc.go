// Package htd is a Go implementation of weighted hypertree decompositions
// and decomposition-based query planning, reproducing
//
//	F. Scarcello, G. Greco, N. Leone,
//	"Weighted hypertree decompositions and optimal query plans",
//	PODS 2004 / Journal of Computer and System Sciences 73 (2007) 475–506.
//
// The package is a facade over the internal implementation:
//
//   - hypergraphs, [V]-components, α-acyclicity, join trees
//     (internal/hypergraph);
//   - hypertree decompositions, the normal form, completeness
//     (internal/hypertree);
//   - semirings, hypertree weighting functions, tree aggregation functions
//     (internal/weights);
//   - the candidate graph and minimal-k-decomp / k-decomp /
//     threshold-k-decomp (internal/core);
//   - conjunctive queries, H(Q), the fresh-variable trick (internal/cq);
//   - relations, statistics, synthetic data (internal/db);
//   - the cost model cost_H(Q) and cost-k-decomp (internal/cost);
//   - Yannakakis evaluation — columnar batched streaming engine plus a
//     left-deep baseline runtime (internal/engine);
//   - a Selinger-style quantitative-only baseline optimizer
//     (internal/optimizer);
//   - the canonical-form plan cache behind the Planner service
//     (internal/cache);
//   - the plan-as-a-service HTTP layer: per-tenant catalogs, request
//     coalescing, Prometheus metrics (internal/server, cmd/planserver);
//   - the distributed tier: a consistent-hash ring over the canonical plan
//     key with a compact peer RPC for cross-replica warm-fill
//     (internal/cluster), and the crash-safe append-only plan store that
//     warm-loads a restarted replica (internal/store);
//   - the experiment harness regenerating the paper's tables and figures
//     (internal/bench).
//
// Quick start:
//
//	h, _ := htd.ParseHypergraph("e1(A,B)\ne2(B,C)\ne3(C,A)\n")
//	w, d, _ := htd.HypertreeWidth(h, 3)      // w == 2
//	fmt.Print(d)                              // an NF decomposition
//
//	q, _ := htd.ParseQuery("ans(X) :- r(X,Y), s(Y,Z), t(Z,X)")
//	plan, _ := htd.PlanQuery(q, cat, 2)       // cost-k-decomp
//	res, _ := htd.ExecutePlan(plan, cat)      // Yannakakis, buffered
//
// Evaluation runs on a columnar engine: relations become dictionary-encoded
// int32 column vectors with one shared hash index per base relation (built
// once across aliases, reusable across queries via NewColStore), and the
// answer is enumerated incrementally in ~BatchSize-row batches. For large
// answers, pull the stream instead of buffering it:
//
//	s, _ := htd.ExecutePlanStream(plan, cat, nil)
//	for row, err := range s.RowsSeq() { … }   // or s.Next() for raw batches
//
// Over HTTP the same stream is POST /v2/execute: chunked NDJSON frames
// (header, row chunks, then a trailer carrying metrics and final status —
// a mid-stream failure ends with an error trailer, never a silently
// truncated 200). Complete answers are result-cached under the canonical
// plan key plus the tenant's catalog version, so a repeat — or a renamed
// variant — of a query replays rows without planning or evaluation, and a
// catalog update invalidates exactly that tenant's cached answers.
//
// Catalogs are live. A wholesale PUT replaces a tenant's catalog and drops
// every derived artifact; PATCH applies a per-relation CatalogDelta —
// relation blocks replace one relation's data, analyze blocks override one
// relation's statistics — to a copy-on-write clone published by
// compare-and-put (optionally pinned with ?ifVersion, answering 409 on a
// lost race), and invalidation is adaptive: a stats-only delta re-keys hot
// plan-cache entries in place and carries cached answers to the new
// version (renamed-variant hits survive with zero new searches), while a
// data delta drops only the answers whose plans reference the changed
// relation and clones the columnar store so untouched relations keep
// their column vectors and shared hash indexes.
//
// Self-joins are written with relation aliases — the alias names the atom
// (hyperedge, fresh variable, bound relation) while the predicate names the
// base relation supplying statistics and tuples; bare duplicate predicates
// auto-alias on parse:
//
//	t, _ := htd.ParseQuery("ans(X,Y,Z) :- e AS e1(X,Y), e AS e2(Y,Z), e AS e3(Z,X)")
//	plan, _ = htd.PlanQuery(t, cat, 2)        // triangles in one edge relation
//
// Services planning a stream of structurally repetitive queries should use
// the Planner entry point instead of PlanQuery: it canonicalizes inputs up
// to variable and alias renaming, caches plans and decompositions in a
// sharded LRU, deduplicates concurrent identical searches, and remaps
// cached plans onto each caller's variable and alias names.
//
// Under the hood, repeated searches over one structure share a
// core.SearchContext: the enumerated k-vertex space, an inverted
// variable → k-vertex index for candidate pruning, and the
// weight-independent structural caches (interned components, per-node χ
// and child subproblems). Contexts are safe for concurrent solves, which
// share those caches — only memo maps and weights are per-solve — so warm
// solves skip structural discovery entirely; cost.PlanSearchFamily extends
// the sharing across a whole k-range (used by cost.Sweep), and the solver
// stamps nodes with integer MemoKeys that the cost model uses to memoize
// estimates without serializing sets. Concurrent misses probe those memo
// tables (weights.Memo) with no lock and no shared cache-line writes on the
// read path.
//
//	planner := htd.NewPlanner(htd.PlannerOptions{})
//	plan, _ := planner.Plan(q, cat, 2)        // cold: runs cost-k-decomp
//	plan, _ = planner.Plan(q2, cat, 2)        // renamed copy of q: cache hit
//	fmt.Println(planner.Stats().Plans.Hits)   // 1
//
// To serve planning over HTTP — per-tenant catalogs, cross-tenant request
// coalescing, Prometheus metrics — construct a Server (the standalone
// binary is cmd/planserver):
//
//	srv := htd.NewServer(htd.ServerConfig{})
//	err := srv.ListenAndServe(ctx, ":8080")   // or embed srv.Handler()
//
// Replicas scale horizontally: a static membership consistent-hash shards
// the canonical plan keyspace, each key is replicated to R owners (the
// ring's distinct-successor list), a replica that misses locally fetches
// the plan from the key's owners in preference order over a compact
// persistent-connection RPC before falling back to a cold search, and
// cold results are pushed to every owner so the next replica's fetch
// hits even after one owner dies. Plans travel as canonical records and
// are re-served through the planner's own remapping path, so a
// peer-filled answer is byte-identical to a locally computed one. Peer
// calls carry the request's remaining deadline, retry within a budget
// under decorrelated-jitter backoff, and pass a per-peer circuit breaker
// (error rate over a sliding window, half-open probes after a cooldown);
// with all owners unreachable the replica serves the cold result locally
// and queues it as a bounded on-disk hint, which a background drainer
// replays once the owner is reachable again — a healed partition
// converges without operator action. With a data directory configured,
// every plan and infeasibility verdict also lands in an append-only
// checksummed store that warm-loads the cache on boot; a torn tail from
// a crash is truncated to the last valid record. Per-tenant token-bucket
// budgets with priority shedding (429 + Retry-After) protect the edge
// under overload. Clustering and persistence are configured on the
// serving layer (internal/server's Config.Cluster, Config.Admission, and
// Config.DataDir, or planserver's -node-id/-peers/-replicas/-data-dir/
// -tenant-rate flags) and require the shared-planner mode.
//
// The concurrent layers are threaded with chaos injection points
// (internal/chaos): a seed-deterministic fault schedule can stall a search
// family's k-vertex enumeration, delay or fail a singleflight compute,
// drop cache inserts, inflate handler latency, stall shutdown, partition
// or delay peer RPCs, deny breaker half-open probes, fail hint-drain
// passes, tear store appends mid-write, and delay or fail the streaming
// engine between row batches (mid-stream, after the HTTP 200). Each
// site declares which effects it can absorb, and with no injector
// registered a hook is a single atomic load and branch — the hot path pays
// nothing. The harness in internal/chaos/scenario replays generated
// workloads under these schedules and asserts the standing invariants
// (byte-identical plans, negative-cache soundness, request conservation,
// leak-free drains); failures reproduce from the printed seed + schedule.
//
// See ExampleHypertreeWidth, ExamplePlanQuery, and ExamplePlanner for
// runnable versions of these snippets.
package htd
