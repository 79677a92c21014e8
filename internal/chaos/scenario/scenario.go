// Package scenario is the chaos e2e harness: it replays seeded
// cqgen-generated workloads against a live planserver while a
// chaos.Schedule injects faults — worker crashes and stalls mid-search,
// singleflight delays and failures, instant cache evictions, handler
// latency that starves the admission limiter, catalog churn racing
// in-flight plans, and mid-flight shutdown — and asserts that the repo's
// standing invariants hold anyway:
//
//   - determinism oracle: every 200 plan response is byte-identical to the
//     chaos-free baseline plan (same serialized tree, same cost bits);
//   - cache-hit correctness: repeated and evicted-then-recomputed requests
//     return those same bytes, hit or miss;
//   - negative-cache soundness: 422 if and only if the structure is truly
//     infeasible at that width, under races and injected failures;
//   - limiter conservation: every offered request is accounted for exactly
//     once (served, rejected, failed-by-injection, or cancelled) and no
//     admission slot leaks;
//   - shutdown drains: the server exits within its timeout and the process
//     returns to its goroutine baseline (leak check with stack dump).
//
// Everything is deterministic per (scenario, seed): a failure message
// carries the scenario name, the seed, and the fault schedule — the triple
// reproduces the run.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/cq/cqgen"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/server"
)

// Options tunes a harness run. The zero value is normalized to a small,
// CI-sized run.
type Options struct {
	Seed        int64 // workload + schedule seed (default 1)
	Queries     int   // distinct cqgen queries in the workload (default 10)
	Requests    int   // total HTTP requests offered (default 80)
	Concurrency int   // client workers (default 8)
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Queries <= 0 {
		o.Queries = 10
	}
	if o.Requests <= 0 {
		o.Requests = 80
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Scenario is one named fault experiment: a schedule generator plus the
// server tuning and run shape it needs.
type Scenario struct {
	Name        string
	Description string
	// Rules builds the seeded fault schedule.
	Rules func(seed int64) []chaos.Rule
	// Tune adjusts the server config (limits, timeouts).
	Tune func(cfg *server.Config)
	// TuneCluster adjusts each replica's cluster config (breaker windows,
	// hint-drain cadence); only consulted when Cluster is set.
	TuneCluster func(cfg *server.ClusterConfig)
	// Require names the points that must have been consulted by the end of
	// the run; a scenario whose faults never fire is a broken scenario.
	Require []chaos.Point
	// ClientCancelEvery cancels every Nth request client-side after
	// ClientCancelAfter, racing cancellation against in-flight coalesced
	// work. 0 disables.
	ClientCancelEvery int
	ClientCancelAfter time.Duration
	// Churn runs concurrent catalog PUTs against every tenant for the
	// duration of the load.
	Churn bool
	// MidShutdown cancels the server context halfway through the offered
	// load; connection errors past that point are expected.
	MidShutdown bool
	// AllowInjectedFailures permits 400 responses whose body names the
	// injected failure (scenarios with Fail rules).
	AllowInjectedFailures bool
	// WantEvictions requires the planner caches to have recorded evictions
	// (scenarios whose point is surviving cache loss).
	WantEvictions bool
	// Want429 requires at least one 429 (limiter-starvation scenarios).
	Want429 bool
	// Cluster boots a 2-replica distributed tier (consistent-hash sharded,
	// store-backed) and round-robins the load across both replicas.
	Cluster bool
	// WantConverge requires, after the load, that hinted handoff actually
	// engaged (hints were queued) and fully converged (every queued hint
	// replayed, none pending) — the partition-heal invariant.
	WantConverge bool
}

// Scenarios returns the standing suite, in execution order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "flight-cancel",
			Description: "singleflight computes are delayed while waiters cancel; peers must still get correct plans",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					{Point: chaos.CacheFlight, Prob: 0.6, Effect: chaos.Delay, Delay: 15 * time.Millisecond, Jitter: 10 * time.Millisecond},
					{Point: chaos.CostFamilyAt, Prob: 0.5, Effect: chaos.Delay, Jitter: 3 * time.Millisecond},
				}
			},
			Require:           []chaos.Point{chaos.CacheFlight},
			ClientCancelEvery: 3,
			ClientCancelAfter: 8 * time.Millisecond,
		},
		{
			Name:        "limiter-starve",
			Description: "handler latency under a tiny admission limit forces 429s; accepted + rejected must equal offered",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					{Point: chaos.ServerHandler, Prob: 0.8, Effect: chaos.Delay, Delay: 3 * time.Millisecond, Jitter: 5 * time.Millisecond},
				}
			},
			Tune: func(cfg *server.Config) {
				cfg.MaxInFlight = 2
			},
			Require: []chaos.Point{chaos.ServerHandler},
			Want429: true,
		},
		{
			Name:        "catalog-churn",
			Description: "catalog PUTs race in-flight plans on the same tenants; versions stay monotonic, plans stay correct",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					{Point: chaos.ServerCatalogPut, Prob: 0.7, Effect: chaos.Delay, Jitter: 3 * time.Millisecond},
					{Point: chaos.CacheFlight, Prob: 0.3, Effect: chaos.Delay, Jitter: 3 * time.Millisecond},
				}
			},
			Require: []chaos.Point{chaos.ServerCatalogPut},
			Churn:   true,
		},
		{
			Name:        "evict-fail",
			Description: "cache inserts vanish and singleflights fail by injection; retries recompute, nothing is poisoned",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					{Point: chaos.CacheAdd, Prob: 0.6, Effect: chaos.Drop},
					{Point: chaos.CacheFlight, Prob: 0.25, Effect: chaos.Fail},
					{Point: chaos.CostFamilyAt, Prob: 0.4, Effect: chaos.Delay, Jitter: 2 * time.Millisecond},
				}
			},
			Require:               []chaos.Point{chaos.CacheAdd, chaos.CacheFlight},
			AllowInjectedFailures: true,
			WantEvictions:         true,
		},
		{
			Name:        "shutdown-storm",
			Description: "abrupt shutdown with requests in flight; the server drains within its timeout and leaks nothing",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					{Point: chaos.ServerShutdown, Prob: 1, Effect: chaos.Delay, Delay: 30 * time.Millisecond},
					{Point: chaos.ServerHandler, Prob: 0.5, Effect: chaos.Delay, Jitter: 8 * time.Millisecond},
				}
			},
			Tune: func(cfg *server.Config) {
				cfg.ShutdownTimeout = 2 * time.Second
			},
			Require:     []chaos.Point{chaos.ServerHandler, chaos.ServerShutdown},
			MidShutdown: true,
		},
		{
			Name:        "stream-fault",
			Description: "the streaming engine fails and stalls mid-batch; every /v2 stream ends in a well-formed trailer (ok matching ground truth, or a structured error), never a truncated 200",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					{Point: chaos.EngineBatch, Prob: 0.35, Effect: chaos.Fail},
					{Point: chaos.EngineBatch, Prob: 0.3, Effect: chaos.Delay, Jitter: 2 * time.Millisecond},
					{Point: chaos.ServerHandler, Prob: 0.3, Effect: chaos.Delay, Jitter: 3 * time.Millisecond},
				}
			},
			Require:               []chaos.Point{chaos.EngineBatch},
			AllowInjectedFailures: true,
		},
		{
			Name:        "peer-partition",
			Description: "peer RPCs stall and partition mid-plan while the store lags; replicas fall back to local search and plans stay byte-identical",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					{Point: chaos.ClusterPeerRPC, Prob: 0.4, Effect: chaos.Delay, Jitter: 5 * time.Millisecond},
					{Point: chaos.ClusterPeerRPC, Prob: 0.3, Effect: chaos.Fail},
					{Point: chaos.StoreAppend, Prob: 0.3, Effect: chaos.Delay, Jitter: 2 * time.Millisecond},
				}
			},
			Require: []chaos.Point{chaos.ClusterPeerRPC, chaos.StoreAppend},
			Cluster: true,
		},
		{
			Name:        "partition-heal-converge",
			Description: "a hard partition severs the peers, then heals; pushes park as hints and the drainer replays every one — the healed cluster converges",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					// The first 40 peer RPCs fail outright: breakers trip,
					// fills fall back to local search, pushes park as hints.
					// Then the link heals for good.
					{Point: chaos.ClusterPeerRPC, Prob: 1, Effect: chaos.Fail, Limit: 40},
					// The first replays fail too — hints must survive a failed
					// drain pass and be retried, not dropped.
					{Point: chaos.ServerHintDrain, Prob: 1, Effect: chaos.Fail, Limit: 2},
				}
			},
			TuneCluster: func(cfg *server.ClusterConfig) {
				// No retries: each injected fault is a failed call, so the
				// partition actually bites instead of being ridden out.
				cfg.Client.Retries = -1
				cfg.Client.Breaker = cluster.BreakerOptions{Window: 4, MinSamples: 2, ErrorRate: 0.5, Cooldown: 15 * time.Millisecond}
				cfg.HintDrainInterval = 10 * time.Millisecond
			},
			Require:      []chaos.Point{chaos.ClusterPeerRPC, chaos.ServerHintDrain},
			Cluster:      true,
			WantConverge: true,
		},
		{
			Name:        "breaker-flap",
			Description: "a flapping link fails peer RPCs at random and denies half the half-open probes; breakers cycle while every answer stays local-or-correct",
			Rules: func(seed int64) []chaos.Rule {
				return []chaos.Rule{
					{Point: chaos.ClusterPeerRPC, Prob: 0.4, Effect: chaos.Fail},
					{Point: chaos.ClusterPeerRPC, Prob: 0.3, Effect: chaos.Delay, Jitter: 4 * time.Millisecond},
					{Point: chaos.ClusterPeerBreaker, Prob: 0.5, Effect: chaos.Fail},
				}
			},
			TuneCluster: func(cfg *server.ClusterConfig) {
				cfg.Client.Retries = -1
				cfg.Client.Breaker = cluster.BreakerOptions{Window: 4, MinSamples: 2, ErrorRate: 0.5, Cooldown: 10 * time.Millisecond}
				cfg.HintDrainInterval = 10 * time.Millisecond
			},
			Require: []chaos.Point{chaos.ClusterPeerRPC, chaos.ClusterPeerBreaker},
			Cluster: true,
		},
	}
}

// workloadItem is one query of the workload plus its chaos-free ground
// truth: the canonical serialized plan bytes, the cost bits, and the row
// count — or the fact that the structure is infeasible at k.
type workloadItem struct {
	tenant      string
	text        string
	k           int
	catalogText string
	infeasible  bool
	planJSON    []byte
	cost        float64
	rows        int  // answer rows (0 for a Boolean query)
	boolean     bool // the query is Boolean; verdict is the answer
	verdict     bool
}

// buildWorkload generates the seeded workload and computes ground truth
// through the exact pipeline the server uses: the catalog is round-tripped
// through the wire format and re-analyzed, the query re-parsed from text.
// No injector may be registered while ground truth is computed.
func buildWorkload(opt Options, plannerOpts cache.Options) ([]workloadItem, error) {
	if chaos.Active() {
		return nil, errors.New("scenario: injector registered during baseline computation")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	baseline := cache.NewPlanner(plannerOpts)
	var items []workloadItem
	for i := 0; i < opt.Queries; i++ {
		cfg := cqgen.Config{Atoms: 3 + rng.Intn(3), MaxArity: 3, MaxCard: 12}
		switch i % 3 {
		case 1:
			cfg.Cyclic = true
		case 2:
			cfg.SelfJoin = 0.5
		}
		inst := cqgen.MustGenerate(rng, cfg)
		// Widths 1..3: width 1 on cyclic shapes yields genuinely infeasible
		// structures, exercising the negative cache under chaos.
		k := 1 + rng.Intn(3)
		item, err := groundTruth(baseline, fmt.Sprintf("t%d", i), inst.Query.String(), k, inst.Catalog)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	// A pinned infeasible structure, so every seed exercises the negative
	// cache: the triangle has hypertree width 2, so k=1 cannot succeed.
	tri := cq.MustParse("ans(X) :- r0(X,Y), r1(Y,Z), r2(Z,X).")
	triCat, err := db.GenerateCatalog(rng, []db.Spec{
		{Name: "r0", Attrs: []string{"a", "b"}, Card: 6, Distinct: map[string]int{"a": 4, "b": 4}},
		{Name: "r1", Attrs: []string{"a", "b"}, Card: 6, Distinct: map[string]int{"a": 4, "b": 4}},
		{Name: "r2", Attrs: []string{"a", "b"}, Card: 6, Distinct: map[string]int{"a": 4, "b": 4}},
	})
	if err != nil {
		return nil, err
	}
	item, err := groundTruth(baseline, fmt.Sprintf("t%d", len(items)), tri.String(), 1, triCat)
	if err != nil {
		return nil, err
	}
	if !item.infeasible {
		return nil, errors.New("scenario: triangle at k=1 unexpectedly feasible")
	}
	return append(items, item), nil
}

func groundTruth(baseline *cache.Planner, tenant, text string, k int, cat *db.Catalog) (workloadItem, error) {
	var buf bytes.Buffer
	if err := db.WriteCatalog(&buf, cat); err != nil {
		return workloadItem{}, err
	}
	item := workloadItem{tenant: tenant, text: text, k: k, catalogText: buf.String()}
	wireCat, err := db.ReadCatalog(strings.NewReader(item.catalogText))
	if err != nil {
		return workloadItem{}, err
	}
	if err := wireCat.AnalyzeAll(); err != nil {
		return workloadItem{}, err
	}
	q, err := cq.Parse(text)
	if err != nil {
		return workloadItem{}, err
	}
	plan, _, err := baseline.PlanCached(q, wireCat, k)
	if errors.Is(err, core.ErrNoDecomposition) {
		item.infeasible = true
		return item, nil
	}
	if err != nil {
		return workloadItem{}, fmt.Errorf("scenario: baseline plan %s k=%d: %w", text, k, err)
	}
	item.planJSON, err = json.Marshal(engine.SerializeDecomposition(plan.Decomp, plan.NodeCosts))
	if err != nil {
		return workloadItem{}, err
	}
	item.cost = plan.EstimatedCost
	var m engine.Metrics
	res, err := engine.EvalDecomposition(plan.Decomp, plan.Query, wireCat, &m)
	if err != nil {
		return workloadItem{}, fmt.Errorf("scenario: baseline eval %s: %w", text, err)
	}
	if q.IsBoolean() {
		item.boolean = true
		item.verdict = engine.Answer(res)
	} else {
		item.rows = res.Card()
	}
	return item, nil
}

// tally is the request-accounting ledger behind the conservation invariant.
type tally struct {
	mu        sync.Mutex
	byCode    map[int]int
	cancelled int
	connErr   int
	failures  []string
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.failures) < 12 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) code(c int) {
	t.mu.Lock()
	t.byCode[c]++
	t.mu.Unlock()
}

// Run executes one scenario at one seed and returns the first invariant
// violations as an error whose message embeds the scenario, the seed, and
// the schedule — everything needed to replay the failure.
func Run(sc Scenario, opt Options) error {
	opt = opt.withDefaults()
	baseGoroutines := chaos.CurrentGoroutines()

	cfg := server.Config{
		RequestTimeout:  10 * time.Second,
		ShutdownTimeout: 3 * time.Second,
	}
	if sc.Tune != nil {
		sc.Tune(&cfg)
	}
	plannerOpts := cfg.Planner
	if plannerOpts.MaxKVertices == 0 {
		plannerOpts.MaxKVertices = server.DefaultMaxPsi
	}

	items, err := buildWorkload(opt, plannerOpts)
	if err != nil {
		return fmt.Errorf("scenario %q seed %d: %w", sc.Name, opt.Seed, err)
	}

	sched := chaos.NewSchedule(opt.Seed, sc.Rules(opt.Seed)...)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q seed %d [%s]: %s", sc.Name, opt.Seed, sched, fmt.Sprintf(format, args...))
	}

	// Serve on real listeners through the full lifecycle path, so the
	// shutdown drain is the one production takes. A cluster scenario boots
	// two replicas with pre-bound peer listeners and a store each, and the
	// load round-robins across them.
	nodes := 1
	var members []cluster.Member
	var peerLns []net.Listener
	if sc.Cluster {
		nodes = 2
		for i := 0; i < nodes; i++ {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				return fail("peer listener: %v", lerr)
			}
			members = append(members, cluster.Member{ID: fmt.Sprintf("node-%d", i), Addr: ln.Addr().String()})
			peerLns = append(peerLns, ln)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	servers := make([]*server.Server, nodes)
	serveErr := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		ncfg := cfg
		if sc.Cluster {
			dir, derr := os.MkdirTemp("", "chaos-store-*")
			if derr != nil {
				return fail("store dir: %v", derr)
			}
			defer os.RemoveAll(dir)
			ncfg.DataDir = dir
			ncfg.Cluster = &server.ClusterConfig{
				NodeID:       members[i].ID,
				Members:      members,
				PeerListener: peerLns[i],
			}
			if sc.TuneCluster != nil {
				sc.TuneCluster(ncfg.Cluster)
			}
		}
		s, serr := server.Open(ncfg)
		if serr != nil {
			return fail("open replica %d: %v", i, serr)
		}
		servers[i] = s
		go func(s *server.Server) { serveErr <- s.ListenAndServe(ctx, "127.0.0.1:0") }(s)
	}
	bases := make([]string, nodes)
	bindDeadline := time.Now().Add(5 * time.Second)
	for i, s := range servers {
		for s.Addr() == nil {
			if time.Now().After(bindDeadline) {
				return fail("server never bound")
			}
			time.Sleep(time.Millisecond)
		}
		bases[i] = "http://" + s.Addr().String()
	}
	client := &http.Client{Timeout: 15 * time.Second}
	defer client.CloseIdleConnections()

	// Upload every tenant's catalog to every replica before faults start
	// (catalogs are replica-local; plan keys derive from the statistics, so
	// they match across replicas).
	for _, it := range items {
		for _, base := range bases {
			if _, err := putCatalog(client, base, it.tenant, it.catalogText); err != nil {
				return fail("catalog upload %s: %v", it.tenant, err)
			}
		}
	}

	unregister := chaos.Register(sched)
	defer unregister()
	opt.Logf("scenario %s seed %d: %d queries, %d requests [%s]", sc.Name, opt.Seed, len(items), opt.Requests, sched)

	tal := &tally{byCode: map[int]int{}}
	var completed atomic.Int64
	var shutdownAt atomic.Int64 // ns timestamp of the mid-flight cancel
	var churnStop chan struct{}
	var churnDone sync.WaitGroup

	if sc.Churn {
		churnStop = make(chan struct{})
		for _, it := range items {
			churnDone.Add(1)
			go func(it workloadItem) {
				defer churnDone.Done()
				last := uint64(0)
				for {
					select {
					case <-churnStop:
						return
					default:
					}
					v, err := putCatalog(client, bases[0], it.tenant, it.catalogText)
					if err != nil {
						// Tolerated: churn may race shutdown.
						return
					}
					if v <= last {
						tal.fail("tenant %s: catalog version regressed %d -> %d", it.tenant, last, v)
						return
					}
					last = v
				}
			}(it)
		}
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, opt.Concurrency)
	for i := 0; i < opt.Requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				done := completed.Add(1)
				if sc.MidShutdown && done == int64(opt.Requests/2) {
					shutdownAt.Store(time.Now().UnixNano())
					cancel()
				}
			}()
			it := items[i%len(items)]
			execute := i%4 == 3
			cancelled := sc.ClientCancelEvery > 0 && i%sc.ClientCancelEvery == 0
			fireRequest(client, bases[i%len(bases)], it, execute, cancelled, sc, tal)
		}(i)
	}
	wg.Wait()
	if sc.Churn {
		close(churnStop)
		churnDone.Wait()
	}

	// Conservation: every offered request landed in exactly one bucket.
	tal.mu.Lock()
	accounted := tal.cancelled + tal.connErr
	counts := make(map[int]int, len(tal.byCode))
	for c, n := range tal.byCode {
		accounted += n
		counts[c] = n
	}
	tal.mu.Unlock()
	var failures []string
	if accounted != opt.Requests {
		failures = append(failures, fmt.Sprintf("conservation: accounted %d of %d offered (codes %v, cancelled %d, connErr %d)",
			accounted, opt.Requests, counts, tal.cancelled, tal.connErr))
	}
	if sc.Want429 && counts[http.StatusTooManyRequests] == 0 {
		failures = append(failures, "limiter never rejected: want at least one 429")
	}
	if sc.MidShutdown && counts[http.StatusOK] == 0 {
		failures = append(failures, "no request succeeded before mid-flight shutdown")
	}

	// Post-load invariants on the still-running servers.
	if !sc.MidShutdown {
		// A cancelled client returns before its server handler does, so the
		// handler may legitimately hold its admission slot a little longer;
		// the invariant is that every slot is eventually released.
		for _, s := range servers {
			for end := time.Now().Add(3 * time.Second); s.LimiterInUse() != 0 && time.Now().Before(end); {
				time.Sleep(5 * time.Millisecond)
			}
			if n := s.LimiterInUse(); n != 0 {
				failures = append(failures, fmt.Sprintf("limiter leak: %d slots still held after drain", n))
			}
		}
		if sc.WantEvictions {
			st := servers[0].PlannerStats()
			if st.Plans.Evictions+st.Decompositions.Evictions+st.Searches.Evictions+st.Infeasible.Evictions == 0 {
				failures = append(failures, "eviction scenario recorded no evictions")
			}
		}
		if sc.WantConverge {
			failures = append(failures, awaitConvergence(client, bases)...)
		}
		// Verification pass with chaos off: every replica answers every
		// query's ground truth — injected evictions recomputed correctly,
		// injected failures retried cleanly, the negative cache poisoned
		// nothing, and peer-filled or store-persisted plans deviate nowhere.
		unregister()
		for _, it := range items {
			for _, base := range bases {
				verifyOnce(client, base, it, tal)
			}
		}
	}

	// Shutdown drains within its timeout, then the goroutine baseline is
	// restored (no leaked workers, flights, or handlers).
	cancel()
	start := time.Now()
	if t := shutdownAt.Load(); t != 0 {
		start = time.Unix(0, t)
	}
	// Keep flushing the client's connection pool while the server drains:
	// a pooled keep-alive connection the client never used again would
	// otherwise hold Shutdown until the server's read-header timeout.
	drained := make(chan struct{})
	go func() {
		for {
			client.CloseIdleConnections()
			select {
			case <-drained:
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()
	for i := 0; i < nodes; i++ {
		select {
		case err := <-serveErr:
			if err != nil {
				failures = append(failures, fmt.Sprintf("shutdown did not drain cleanly: Serve returned %v", err))
			}
		case <-time.After(cfg.ShutdownTimeout + 5*time.Second):
			failures = append(failures, "Serve did not return after shutdown")
		}
	}
	close(drained)
	if el := time.Since(start); el > cfg.ShutdownTimeout+3*time.Second {
		failures = append(failures, fmt.Sprintf("shutdown took %v, bound %v", el, cfg.ShutdownTimeout))
	}
	unregister()
	client.CloseIdleConnections()
	if err := chaos.VerifyNoGoroutineLeak(baseGoroutines, 5*time.Second); err != nil {
		failures = append(failures, err.Error())
	}

	// Faults must actually have been exercised (checked after shutdown so
	// the Serve goroutine's own injection point has settled).
	for _, p := range sc.Require {
		if sched.Hits(p) == 0 {
			failures = append(failures, fmt.Sprintf("injection point %s was never consulted", p))
		}
	}

	// Fold in the per-request failures collected by the workers.
	tal.mu.Lock()
	failures = dedupe(append(failures, tal.failures...))
	tal.mu.Unlock()

	if len(failures) > 0 {
		return fail("%d invariant violations:\n  - %s", len(failures), strings.Join(failures, "\n  - "))
	}
	opt.Logf("scenario %s seed %d: ok (%d chaos hits, codes %v)", sc.Name, opt.Seed, sched.TotalHits(), counts)
	return nil
}

// fireRequest issues one plan or execute call and validates the response
// against the item's ground truth, filing failures into the tally.
func fireRequest(client *http.Client, base string, it workloadItem, execute, cancelled bool, sc Scenario, tal *tally) {
	path, body := "/v1/plan", server.PlanRequest{Tenant: it.tenant, Query: it.text, K: it.k}
	payload, _ := json.Marshal(body)
	if execute {
		path = "/v2/execute"
	}
	ctx := context.Background()
	if cancelled {
		var cancelCtx context.CancelFunc
		ctx, cancelCtx = context.WithTimeout(ctx, sc.ClientCancelAfter)
		defer cancelCtx()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(payload))
	if err != nil {
		tal.fail("build request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		switch {
		case cancelled && errors.Is(err, context.DeadlineExceeded):
			tal.mu.Lock()
			tal.cancelled++
			tal.mu.Unlock()
		case sc.MidShutdown:
			tal.mu.Lock()
			tal.connErr++
			tal.mu.Unlock()
		default:
			tal.mu.Lock()
			tal.connErr++
			tal.mu.Unlock()
			tal.fail("%s %s k=%d: transport error outside shutdown: %v", path, it.tenant, it.k, err)
		}
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tal.code(resp.StatusCode)
		if !sc.MidShutdown && !cancelled {
			tal.fail("%s %s: body read: %v", path, it.tenant, err)
		}
		return
	}
	tal.code(resp.StatusCode)
	if execute {
		verifyStream(path, it, resp.StatusCode, raw, sc, tal)
		return
	}
	verifyResponse(path, it, resp.StatusCode, raw, sc, tal)
}

// verifyStream validates a /v2/execute NDJSON response: pre-stream
// failures are plain JSON errors handled like any endpoint's; a 200 must
// be a header frame carrying the baseline cost, optional row frames, and
// exactly one trailer — "ok" matching ground truth, or a structured error
// naming the injected fault. A 200 with no trailer is the cardinal sin: a
// silently truncated answer.
func verifyStream(path string, it workloadItem, code int, raw []byte, sc Scenario, tal *tally) {
	if code != http.StatusOK {
		verifyResponse(path, it, code, raw, sc, tal)
		return
	}
	if it.infeasible {
		tal.fail("%s %s k=%d: 200 for an infeasible structure", path, it.tenant, it.k)
		return
	}
	var trailer *server.ExecStreamTrailer
	sawHeader, rows := false, 0
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if trailer != nil {
			tal.fail("%s %s: frame after trailer: %s", path, it.tenant, line)
			return
		}
		var probe struct {
			Frame string `json:"frame"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			tal.fail("%s %s: bad frame %q: %v", path, it.tenant, line, err)
			return
		}
		switch probe.Frame {
		case "header":
			var hf server.ExecStreamHeader
			if err := json.Unmarshal(line, &hf); err != nil {
				tal.fail("%s %s: bad header: %v", path, it.tenant, err)
				return
			}
			if hf.EstimatedCost != it.cost {
				tal.fail("%s %s k=%d: cost %v, baseline %v", path, it.tenant, it.k, hf.EstimatedCost, it.cost)
			}
			sawHeader = true
		case "rows":
			if !sawHeader {
				tal.fail("%s %s: rows before header", path, it.tenant)
				return
			}
			var rf server.ExecStreamRows
			if err := json.Unmarshal(line, &rf); err != nil {
				tal.fail("%s %s: bad rows frame: %v", path, it.tenant, err)
				return
			}
			rows += len(rf.Rows)
		case "trailer":
			var tr server.ExecStreamTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				tal.fail("%s %s: bad trailer: %v", path, it.tenant, err)
				return
			}
			trailer = &tr
		default:
			tal.fail("%s %s: unknown frame %q", path, it.tenant, probe.Frame)
			return
		}
	}
	if !sawHeader || trailer == nil {
		tal.fail("%s %s k=%d: truncated 200 stream (header=%v, trailer=%v) — a fault must surface as an error trailer",
			path, it.tenant, it.k, sawHeader, trailer != nil)
		return
	}
	switch trailer.Status {
	case "ok":
		if it.boolean {
			if trailer.Boolean == nil || *trailer.Boolean != it.verdict {
				tal.fail("%s %s k=%d: stream boolean %v, baseline %v", path, it.tenant, it.k, trailer.Boolean, it.verdict)
			}
		} else if trailer.RowCount != it.rows || rows != it.rows {
			tal.fail("%s %s k=%d: stream rows %d (trailer %d), baseline %d", path, it.tenant, it.k, rows, trailer.RowCount, it.rows)
		}
	case "error":
		if trailer.Error == nil {
			tal.fail("%s %s: error trailer without an error object", path, it.tenant)
			return
		}
		if !sc.AllowInjectedFailures || !strings.Contains(trailer.Error.Message, "injected") {
			tal.fail("%s %s k=%d: unexpected stream error: %+v", path, it.tenant, it.k, trailer.Error)
		}
	default:
		tal.fail("%s %s: trailer status %q", path, it.tenant, trailer.Status)
	}
}

// verifyResponse checks one response against ground truth and the
// scenario's allowed failure modes.
func verifyResponse(path string, it workloadItem, code int, raw []byte, sc Scenario, tal *tally) {
	switch code {
	case http.StatusOK:
		if it.infeasible {
			tal.fail("%s %s k=%d: 200 for an infeasible structure (negative-cache unsoundness)", path, it.tenant, it.k)
			return
		}
		var pr server.PlanResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			tal.fail("%s %s: bad body: %v", path, it.tenant, err)
			return
		}
		got, err := json.Marshal(pr.Plan)
		if err != nil {
			tal.fail("%s %s: re-marshal: %v", path, it.tenant, err)
			return
		}
		if !bytes.Equal(got, it.planJSON) {
			tal.fail("%s %s k=%d: plan deviates from chaos-free baseline:\n  got  %s\n  want %s",
				path, it.tenant, it.k, got, it.planJSON)
		}
		if pr.EstimatedCost != it.cost {
			tal.fail("%s %s k=%d: cost %v, baseline %v", path, it.tenant, it.k, pr.EstimatedCost, it.cost)
		}
	case http.StatusUnprocessableEntity:
		if !it.infeasible {
			tal.fail("%s %s k=%d: 422 for a feasible structure (negative-cache poisoned): %s", path, it.tenant, it.k, raw)
		}
	case http.StatusTooManyRequests:
		// Admission rejection: always legitimate under chaos load.
	case http.StatusServiceUnavailable:
		if !sc.MidShutdown {
			tal.fail("%s %s k=%d: unexpected 503 outside shutdown: %s", path, it.tenant, it.k, raw)
		}
	case http.StatusBadRequest:
		if !sc.AllowInjectedFailures || !bytes.Contains(raw, []byte("injected")) {
			tal.fail("%s %s k=%d: unexpected 400: %s", path, it.tenant, it.k, raw)
		}
	default:
		tal.fail("%s %s k=%d: unexpected status %d: %s", path, it.tenant, it.k, code, raw)
	}
}

// verifyOnce re-requests one item with chaos off; the answer must match
// ground truth exactly.
func verifyOnce(client *http.Client, base string, it workloadItem, tal *tally) {
	payload, _ := json.Marshal(server.PlanRequest{Tenant: it.tenant, Query: it.text, K: it.k})
	resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(payload))
	if err != nil {
		tal.fail("verify %s: %v", it.tenant, err)
		return
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	switch {
	case it.infeasible && resp.StatusCode != http.StatusUnprocessableEntity:
		tal.fail("verify %s k=%d: status %d for infeasible structure: %s", it.tenant, it.k, resp.StatusCode, raw)
	case !it.infeasible && resp.StatusCode != http.StatusOK:
		tal.fail("verify %s k=%d: status %d after chaos ended: %s", it.tenant, it.k, resp.StatusCode, raw)
	case !it.infeasible:
		var pr server.PlanResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			tal.fail("verify %s: bad body: %v", it.tenant, err)
			return
		}
		got, _ := json.Marshal(pr.Plan)
		if !bytes.Equal(got, it.planJSON) {
			tal.fail("verify %s k=%d: cached state poisoned, plan deviates:\n  got  %s\n  want %s", it.tenant, it.k, got, it.planJSON)
		}
	}
}

// awaitConvergence polls every replica's cluster stats until hinted
// handoff has fully drained, then asserts it actually engaged: a
// partition-heal scenario where no push ever needed a hint is a broken
// scenario, and a pending hint after the deadline means the healed
// cluster never converged.
func awaitConvergence(client *http.Client, bases []string) []string {
	var queued, replayed uint64
	deadline := time.Now().Add(8 * time.Second)
	for {
		queued, replayed = 0, 0
		pending := 0
		ok := true
		for _, base := range bases {
			st, err := fetchStats(client, base)
			if err != nil || st.Cluster == nil {
				ok = false
				break
			}
			queued += st.Cluster.HintsQueued
			replayed += st.Cluster.HintsReplayed
			pending += st.Cluster.HintsPending
		}
		if ok && pending == 0 && queued > 0 {
			break
		}
		if time.Now().After(deadline) {
			return []string{fmt.Sprintf("hinted handoff did not converge: queued=%d replayed=%d pending=%d", queued, replayed, pending)}
		}
		time.Sleep(20 * time.Millisecond)
	}
	var failures []string
	if replayed == 0 {
		failures = append(failures, "hints drained without a single replay")
	}
	return failures
}

func fetchStats(client *http.Client, base string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.Unmarshal(raw, &st)
}

func putCatalog(client *http.Client, base, tenant, text string) (uint64, error) {
	req, err := http.NewRequest(http.MethodPut, base+"/v1/catalogs/"+tenant, strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("PUT %s: status %d: %s", tenant, resp.StatusCode, raw)
	}
	var ack server.CatalogResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, err
	}
	return ack.Version, nil
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// RunAll runs every scenario of the standing suite at the given seed,
// returning the first failure (scenarios are cheap; later ones still run so
// the report is complete).
func RunAll(opt Options) error {
	var errs []string
	for _, sc := range Scenarios() {
		if err := Run(sc, opt); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "\n"))
	}
	return nil
}
