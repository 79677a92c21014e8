// planserver serves the planner and engine over HTTP/JSON: plan-as-a-
// service with per-tenant catalogs, request coalescing, and Prometheus
// metrics. See the README's "Serving" section for the endpoint reference
// and curl examples.
//
// Usage:
//
//	planserver [-addr host:port] [flags]
//
// -addr may use port 0 to bind a random free port; the bound address is
// logged as "listening on http://host:port".
//
// A replica joins a cluster with -node-id, -peers, and -peer-listen: the
// static membership is consistent-hash sharded over the canonical plan
// key, every key is replicated to -replicas owners, and a replica that
// misses locally warm-fills from the key's owners in preference order
// before falling back to a cold search. -data-dir adds the crash-safe
// persistent plan store (and the on-disk hinted-handoff log), warm-loading
// the cache on boot:
//
//	planserver -node-id a -peer-listen 127.0.0.1:9001 \
//	    -peers 'a=127.0.0.1:9001,b=127.0.0.1:9002' -data-dir /var/lib/planserver
//
// Both require the shared-planner mode (no -isolate-tenants).
//
// Tenant-aware overload protection is opt-in: -tenant-rate/-tenant-burst
// bound each tenant's plan-serving demand with a token bucket, and
// -tenant-priority assigns shed-order classes (0 = never priority-shed);
// shed requests get 429 + Retry-After.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/server"
)

// parsePriorities turns "acme=0,bulk=8" into a tenant → priority-class
// map for AdmissionConfig.TenantPriority.
func parsePriorities(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		tenant, class, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("-tenant-priority: bad entry %q (want tenant=class)", part)
		}
		n, err := strconv.Atoi(class)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-tenant-priority: bad class in %q", part)
		}
		out[tenant] = n
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("planserver: ")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = random free port)")
	capacity := flag.Int("capacity", 4096, "plan cache capacity per cache")
	maxPsi := flag.Int("max-psi", server.DefaultMaxPsi, "candidate-space guard per search (0 = server default)")
	isolate := flag.Bool("isolate-tenants", false, "give each tenant a private planner (no cross-tenant cache sharing)")
	defaultK := flag.Int("default-k", 3, "width bound when requests omit k")
	maxK := flag.Int("max-k", 8, "maximum accepted width bound")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	maxInFlight := flag.Int("max-inflight", 256, "maximum concurrent requests (excess get 429)")
	resultCacheBytes := flag.Int64("result-cache-bytes", 0, "result cache byte budget (0 = 64 MiB default, negative = disabled)")
	nodeID := flag.String("node-id", "", "this replica's cluster id (requires -peers)")
	peers := flag.String("peers", "", "static cluster membership as id=host:port,... (including this node)")
	peerListen := flag.String("peer-listen", "", "peer RPC listen address (default: this node's address from -peers)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = default)")
	replicas := flag.Int("replicas", 0, "owners per plan key (0 = default 2, clamped to the member count)")
	dataDir := flag.String("data-dir", "", "persistent plan store directory (empty = in-memory only)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant plan requests/sec budget (0 = no tenant budgets)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant burst capacity (0 = 2x -tenant-rate)")
	tenantPriority := flag.String("tenant-priority", "", "tenant shed-priority classes as tenant=class,... (0 = highest; lower classes shed last)")
	defaultPriority := flag.Int("default-priority", 0, "priority class for tenants not listed in -tenant-priority")
	flag.Parse()

	cfg := server.Config{
		Planner: cache.Options{
			Capacity:     *capacity,
			MaxKVertices: *maxPsi,
		},
		IsolateTenants:   *isolate,
		DefaultK:         *defaultK,
		MaxK:             *maxK,
		RequestTimeout:   *timeout,
		MaxInFlight:      *maxInFlight,
		ResultCacheBytes: *resultCacheBytes,
		DataDir:          *dataDir,
		Log:              log.Default(),
	}
	if *tenantRate > 0 {
		prio, err := parsePriorities(*tenantPriority)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Admission = server.AdmissionConfig{
			TenantRate:      *tenantRate,
			TenantBurst:     *tenantBurst,
			TenantPriority:  prio,
			DefaultPriority: *defaultPriority,
		}
	} else if *tenantPriority != "" {
		log.Fatal("-tenant-priority requires -tenant-rate")
	}
	if (*nodeID == "") != (*peers == "") {
		log.Fatal("-node-id and -peers must be set together")
	}
	if *nodeID != "" {
		members, err := cluster.ParseMembers(*peers)
		if err != nil {
			log.Fatal(err)
		}
		listen := *peerListen
		if listen == "" {
			for _, m := range members {
				if m.ID == *nodeID {
					listen = m.Addr
				}
			}
		}
		cfg.Cluster = &server.ClusterConfig{
			NodeID:     *nodeID,
			Members:    members,
			PeerListen: listen,
			Vnodes:     *vnodes,
			Replicas:   *replicas,
		}
	}

	srv, err := server.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if srv.NodeID() != "" {
		log.Printf("cluster node %s, peer RPC on %s", srv.NodeID(), srv.PeerAddr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
}
