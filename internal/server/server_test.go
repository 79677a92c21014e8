package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
)

const triangleCatalog = `relation r (a,b)
1,2
2,3
end
relation s (b,c)
2,3
3,4
end
relation t (c,a)
3,1
4,2
end
`

const triangleQuery = "ans(X,Y) :- r(X,Y), s(Y,Z), t(Z,X)."

// newTestServer returns a started server plus its base URL; cleanup is
// registered on t.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func uploadCatalog(t *testing.T, ts *httptest.Server, tenant, text string) CatalogResponse {
	t.Helper()
	resp := doPut(t, ts, "/v1/catalogs/"+tenant, text)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("catalog upload: status %d: %s", resp.StatusCode, body)
	}
	var out CatalogResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func doPut(t *testing.T, ts *httptest.Server, path, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func postJSON(t *testing.T, ts *httptest.Server, path string, payload any) *http.Response {
	t.Helper()
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeAs[T any](t *testing.T, resp *http.Response, wantStatus int) T {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, body)
	}
	var out T
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode %T from %s: %v", out, body, err)
	}
	return out
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	return decodeAs[StatsResponse](t, resp, http.StatusOK)
}

func TestCatalogRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadCatalog(t, ts, "acme", triangleCatalog)
	if up.Relations != 3 || up.Tuples != 6 || up.Version != 1 {
		t.Fatalf("upload ack = %+v", up)
	}
	if up2 := uploadCatalog(t, ts, "acme", triangleCatalog); up2.Version != 2 {
		t.Fatalf("re-upload version = %d, want 2", up2.Version)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/catalogs/acme")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog download: status %d", resp.StatusCode)
	}
	cat, err := db.ReadCatalog(resp.Body)
	if err != nil {
		t.Fatalf("downloaded catalog does not re-parse: %v", err)
	}
	if len(cat.Names()) != 3 || cat.Get("r").Card() != 2 {
		t.Fatalf("round-tripped catalog = %v", cat.Names())
	}

	listResp, err := ts.Client().Get(ts.URL + "/v1/catalogs")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeAs[CatalogListResponse](t, listResp, http.StatusOK)
	if len(list.Tenants) != 1 || list.Tenants[0] != "acme" {
		t.Fatalf("tenant list = %v", list.Tenants)
	}

	missing, err := ts.Client().Get(ts.URL + "/v1/catalogs/ghost")
	if err != nil {
		t.Fatal(err)
	}
	decodeAs[ErrorResponse](t, missing, http.StatusNotFound)
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)

	first := decodeAs[PlanResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 2}),
		http.StatusOK)
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if first.Width != 2 || first.EstimatedCost <= 0 || first.Plan == nil || first.CatalogVersion != 1 {
		t.Fatalf("first plan = %+v", first)
	}
	if n := first.Plan.CountNodes(); n < 1 {
		t.Fatalf("plan tree has %d nodes", n)
	}

	second := decodeAs[PlanResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 2}),
		http.StatusOK)
	if !second.CacheHit {
		t.Fatal("identical second request missed the cache")
	}

	renamed := decodeAs[PlanResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{
			Tenant: "acme",
			Query:  "ans(P,Q) :- r(P,Q), s(Q,R), t(R,P).",
			K:      2,
		}),
		http.StatusOK)
	if !renamed.CacheHit {
		t.Fatal("variable-renamed request missed the canonical cache")
	}
	if renamed.EstimatedCost != first.EstimatedCost {
		t.Fatalf("renamed cost %v != original %v", renamed.EstimatedCost, first.EstimatedCost)
	}

	// Default k applies when omitted.
	dflt := decodeAs[PlanResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery}),
		http.StatusOK)
	if dflt.K != 3 {
		t.Fatalf("default k = %d, want 3", dflt.K)
	}
}

func TestPlanErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)

	// Unparseable query.
	decodeAs[ErrorResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: "not a query", K: 2}),
		http.StatusBadRequest)
	// Unknown tenant.
	decodeAs[ErrorResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "ghost", Query: triangleQuery, K: 2}),
		http.StatusNotFound)
	// k out of range.
	decodeAs[ErrorResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 99}),
		http.StatusBadRequest)
	// Query over relations absent from the catalog.
	decodeAs[ErrorResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: "ans(X) :- nosuch(X,Y).", K: 2}),
		http.StatusBadRequest)

	// Infeasible width: 422, and the second attempt is a negative-cache hit.
	for round := 0; round < 2; round++ {
		decodeAs[ErrorResponse](t,
			postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 1}),
			http.StatusUnprocessableEntity)
	}
	st := getStats(t, ts)
	if st.Planner.Infeasible.Computations != 1 || st.Planner.Infeasible.Hits != 1 {
		t.Fatalf("negative cache counters = %+v, want 1 computation + 1 hit", st.Planner.Infeasible)
	}
}

func TestExecuteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)

	out := readStream(t,
		postJSON(t, ts, "/v2/execute", ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 2}))
	if out.trailer.Boolean != nil {
		t.Fatal("non-Boolean query answered with a Boolean")
	}
	if len(out.header.Columns) != 2 || out.header.Columns[0] != "X" || out.header.Columns[1] != "Y" {
		t.Fatalf("columns = %v", out.header.Columns)
	}
	// The triangle closes for (1,2) via Z=3 and (2,3) via Z=4.
	want := map[[2]int32]bool{{1, 2}: true, {2, 3}: true}
	if out.trailer.RowCount != 2 || len(out.rows) != 2 {
		t.Fatalf("rows = %v", out.rows)
	}
	for _, row := range out.rows {
		if !want[[2]int32{row[0], row[1]}] {
			t.Fatalf("unexpected row %v", row)
		}
	}
	if m := out.trailer.Metrics; m == nil || (m.Joins == 0 && m.Semijoins == 0) {
		t.Fatalf("metrics = %+v, want some operator counts", m)
	}

	boolOut := readStream(t,
		postJSON(t, ts, "/v2/execute", ExecuteRequest{
			Tenant: "acme",
			Query:  "ans :- r(X,Y), s(Y,Z), t(Z,X).",
			K:      2,
		}))
	if boolOut.trailer.Boolean == nil || !*boolOut.trailer.Boolean {
		t.Fatalf("Boolean triangle answer = %v, want true", boolOut.trailer.Boolean)
	}
	if len(boolOut.rows) != 0 {
		t.Fatal("Boolean query leaked rows")
	}
}

func TestDecomposeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := DecomposeRequest{Hypergraph: "e1(A,B)\ne2(B,C)\ne3(C,A)\n", K: 2}
	first := decodeAs[DecomposeResponse](t, postJSON(t, ts, "/v1/decompose", req), http.StatusOK)
	if first.Width < 1 || first.Width > 2 || first.Decomposition == nil {
		t.Fatalf("decomposition = %+v", first)
	}
	second := decodeAs[DecomposeResponse](t, postJSON(t, ts, "/v1/decompose", req), http.StatusOK)
	if !second.CacheHit {
		t.Fatal("second decomposition missed the cache")
	}
	// Infeasible width.
	decodeAs[ErrorResponse](t,
		postJSON(t, ts, "/v1/decompose", DecomposeRequest{Hypergraph: "e1(A,B)\ne2(B,C)\ne3(C,A)\n", K: 1}),
		http.StatusUnprocessableEntity)
}

// The acceptance criterion: structurally identical queries from different
// tenants produce exactly one planner computation in shared mode, verified
// through /v1/stats.
func TestCrossTenantCoalescing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "alice", triangleCatalog)
	uploadCatalog(t, ts, "bob", triangleCatalog)

	first := decodeAs[PlanResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "alice", Query: triangleQuery, K: 2}),
		http.StatusOK)
	if first.CacheHit {
		t.Fatal("alice's cold request reported a hit")
	}
	second := decodeAs[PlanResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{
			Tenant: "bob",
			Query:  "ans(U,V) :- r(U,V), s(V,W), t(W,U).",
			K:      2,
		}),
		http.StatusOK)
	if !second.CacheHit {
		t.Fatal("bob's structurally identical request missed the cache")
	}
	st := getStats(t, ts)
	if st.Planner.Plans.Computations != 1 {
		t.Fatalf("plan computations = %d, want exactly 1", st.Planner.Plans.Computations)
	}
	if st.Planner.Plans.Hits < 1 {
		t.Fatalf("plan hits = %d, want ≥ 1", st.Planner.Plans.Hits)
	}
}

// N concurrent identical requests on a cold server must coalesce into one
// computation in the Planner's singleflight.
func TestConcurrentPlanCoalescing(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"singleflight", Config{}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, ts := newTestServer(t, mode.cfg)
			uploadCatalog(t, ts, "acme", triangleCatalog)
			const n = 16
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp := postJSON(t, ts, "/v1/plan",
						PlanRequest{Tenant: "acme", Query: triangleQuery, K: 2})
					defer resp.Body.Close()
					body, _ := io.ReadAll(resp.Body)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := getStats(t, ts)
			if st.Planner.Plans.Computations != 1 {
				t.Fatalf("computations = %d for %d concurrent identical requests, want 1",
					st.Planner.Plans.Computations, n)
			}
		})
	}
}

// Tenants uploading catalogs while others plan and execute: correctness is
// "no race, no 5xx" (run under -race).
func TestConcurrentTenantsUploadAndPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tenants := []string{"a", "b", "c"}
	for _, tn := range tenants {
		uploadCatalog(t, ts, tn, triangleCatalog)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) { // uploader
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp := doPut(t, ts, "/v1/catalogs/"+tenants[g%len(tenants)], triangleCatalog)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("upload status %d", resp.StatusCode)
				}
			}
		}(g)
		go func(g int) { // planner/executor
			defer wg.Done()
			for i := 0; i < 10; i++ {
				path, payload := "/v1/plan", any(PlanRequest{
					Tenant: tenants[(g+i)%len(tenants)], Query: triangleQuery, K: 2,
				})
				if i%3 == 0 {
					path, payload = "/v2/execute", any(ExecuteRequest{
						Tenant: tenants[(g+i)%len(tenants)], Query: triangleQuery, K: 2,
					})
				}
				resp := postJSON(t, ts, path, payload)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s status %d", path, resp.StatusCode)
				} else if path == "/v2/execute" && !bytes.Contains(body, []byte(`"status":"ok"`)) {
					errs <- fmt.Errorf("%s trailer not ok: %s", path, body)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 2})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	st := getStats(t, ts)
	if st.Planner.Plans.Hits != 1 || st.Planner.Plans.Computations != 1 {
		t.Fatalf("planner stats = %+v", st.Planner.Plans)
	}
	if len(st.Catalogs) != 1 || st.Catalogs[0] != "acme" {
		t.Fatalf("catalogs = %v", st.Catalogs)
	}
	if st.UptimeSec <= 0 {
		t.Fatalf("uptime = %v", st.UptimeSec)
	}
	if st.PerTenant != nil {
		t.Fatal("shared mode must not report per-tenant stats")
	}
}

func TestStatsEndpointIsolated(t *testing.T) {
	_, ts := newTestServer(t, Config{IsolateTenants: true})
	uploadCatalog(t, ts, "alice", triangleCatalog)
	uploadCatalog(t, ts, "bob", triangleCatalog)
	for _, tn := range []string{"alice", "bob"} {
		resp := postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: tn, Query: triangleQuery, K: 2})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	st := getStats(t, ts)
	if st.Planner.Plans.Computations != 2 {
		t.Fatalf("isolated aggregate computations = %d, want 2", st.Planner.Plans.Computations)
	}
	if len(st.PerTenant) != 2 || st.PerTenant["alice"].Plans.Computations != 1 {
		t.Fatalf("per-tenant stats = %+v", st.PerTenant)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan status %d, want 405", resp.StatusCode)
	}
}
