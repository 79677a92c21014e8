package server

import (
	"fmt"
	"net/http"
	"sort"
	"testing"
)

// edgeCatalog is a small directed graph: 1→2, 2→3, 3→1, 2→1.
const edgeCatalog = `relation e (src,dst)
1,2
2,3
3,1
2,1
end
`

// rowSet renders rows order-independently for comparison.
func rowSet(rows [][]int32) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// TestServerSelfJoinEndToEnd: PUT a catalog, plan and execute an aliased
// self-join over HTTP, and verify that an alias+variable-renamed variant of
// the same query is a cache hit.
func TestServerSelfJoinEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", edgeCatalog)

	// Two-step path e1;e2: all (X,Z) with X→Y→Z.
	path := PlanRequest{Tenant: "acme", Query: "ans(X,Z) :- e AS e1(X,Y), e AS e2(Y,Z).", K: 2}
	plan := decodeAs[PlanResponse](t, postJSON(t, ts, "/v1/plan", path), http.StatusOK)
	if plan.CacheHit {
		t.Fatal("first self-join plan reported a cache hit")
	}
	if plan.Plan == nil || plan.Width < 1 {
		t.Fatalf("degenerate plan response: %+v", plan)
	}

	exec := readStream(t, postJSON(t, ts, "/v2/execute",
		ExecuteRequest{Tenant: "acme", Query: path.Query, K: 2}))
	if !exec.header.CacheHit {
		t.Error("execute after plan of the same text should hit the plan cache")
	}
	want := rowSet([][]int32{{1, 3}, {1, 1}, {2, 1}, {2, 2}, {3, 2}})
	if got := rowSet(exec.rows); got != want || exec.trailer.RowCount != 5 {
		t.Fatalf("path rows = %s (count %d), want %s", got, exec.trailer.RowCount, want)
	}

	// Alias+variable-renamed variant: same structure, fresh names → hit.
	renamed := PlanRequest{Tenant: "acme", Query: "ans(P,R) :- e AS hop2(Q,R), e AS hop1(P,Q).", K: 2}
	rplan := decodeAs[PlanResponse](t, postJSON(t, ts, "/v1/plan", renamed), http.StatusOK)
	if !rplan.CacheHit {
		t.Fatal("renamed self-join variant missed the plan cache")
	}
	if rplan.EstimatedCost != plan.EstimatedCost {
		t.Fatalf("renamed cost %v != original %v", rplan.EstimatedCost, plan.EstimatedCost)
	}
	rexec := readStream(t, postJSON(t, ts, "/v2/execute",
		ExecuteRequest{Tenant: "acme", Query: renamed.Query, K: 2}))
	if got := rowSet(rexec.rows); got != want {
		t.Fatalf("renamed variant rows = %s, want %s", got, want)
	}
}

// TestServerSelfJoinTriangle: the acceptance-criteria triangle — a cyclic
// 3-alias self-join — parses, plans at k=2, and executes over HTTP; its
// renamed variant is a cache hit.
func TestServerSelfJoinTriangle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", edgeCatalog)

	tri := ExecuteRequest{Tenant: "acme", Query: "ans(X,Y,Z) :- e AS e1(X,Y), e AS e2(Y,Z), e AS e3(Z,X).", K: 2}
	exec := readStream(t, postJSON(t, ts, "/v2/execute", tri))
	if exec.header.CacheHit {
		t.Fatal("cold triangle reported a cache hit")
	}
	// The only directed triangle is 1→2→3→1, seen from its three rotations.
	want := rowSet([][]int32{{1, 2, 3}, {2, 3, 1}, {3, 1, 2}})
	if got := rowSet(exec.rows); got != want || exec.trailer.RowCount != 3 {
		t.Fatalf("triangle rows = %s (count %d), want %s", got, exec.trailer.RowCount, want)
	}

	// Boolean form, bare duplicates: the wire accepts auto-aliased input.
	boolReq := ExecuteRequest{Tenant: "acme", Query: "ans :- e(X,Y), e(Y,Z), e(Z,X).", K: 2}
	bexec := readStream(t, postJSON(t, ts, "/v2/execute", boolReq))
	if bexec.trailer.Boolean == nil || !*bexec.trailer.Boolean {
		t.Fatalf("boolean triangle = %+v, want true", bexec.trailer.Boolean)
	}

	// Renamed rotation of the output triangle: plan-cache hit.
	renamed := PlanRequest{Tenant: "acme", Query: "ans(U,V,W) :- e AS c(W,U), e AS a(U,V), e AS b(V,W).", K: 2}
	rplan := decodeAs[PlanResponse](t, postJSON(t, ts, "/v1/plan", renamed), http.StatusOK)
	if !rplan.CacheHit {
		t.Fatal("renamed triangle variant missed the plan cache")
	}
}
