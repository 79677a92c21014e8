package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/engine"
)

// streamFrames decodes a /v2/execute NDJSON body into its typed frames.
type streamFrames struct {
	header  ExecStreamHeader
	rows    [][]int32
	chunks  int
	trailer ExecStreamTrailer
}

func readStream(t *testing.T, resp *http.Response) streamFrames {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	var out streamFrames
	sawHeader, sawTrailer := false, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if sawTrailer {
			t.Fatalf("frame after trailer: %s", sc.Text())
		}
		var probe struct {
			Frame string `json:"frame"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		switch probe.Frame {
		case "header":
			if sawHeader {
				t.Fatal("duplicate header frame")
			}
			sawHeader = true
			if err := json.Unmarshal(sc.Bytes(), &out.header); err != nil {
				t.Fatal(err)
			}
		case "rows":
			if !sawHeader {
				t.Fatal("rows before header")
			}
			var rf ExecStreamRows
			if err := json.Unmarshal(sc.Bytes(), &rf); err != nil {
				t.Fatal(err)
			}
			out.chunks++
			out.rows = append(out.rows, rf.Rows...)
		case "trailer":
			sawTrailer = true
			if err := json.Unmarshal(sc.Bytes(), &out.trailer); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown frame kind %q", probe.Frame)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawHeader || !sawTrailer {
		t.Fatalf("incomplete stream: header=%v trailer=%v", sawHeader, sawTrailer)
	}
	return out
}

func sortRows(rows [][]int32) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// The v2 stream must agree with the buffered row engine on the answer,
// and the stream must be properly framed.
func TestExecuteStreamMatchesBuffered(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)
	req := ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 2}
	st := readStream(t, postJSON(t, ts, "/v2/execute", req))

	// Oracle: plan the same query locally and drain the buffered evaluator.
	cat, err := db.ReadCatalog(strings.NewReader(triangleCatalog))
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	plan, _, err := cache.NewPlanner(cache.Options{}).PlanCached(cq.MustParse(triangleQuery), cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.EvalDecomposition(plan.Decomp, plan.Query, cat, nil)
	if err != nil {
		t.Fatal(err)
	}

	if st.header.Tenant != "acme" || st.header.K != 2 || st.header.CatalogVersion != 1 {
		t.Fatalf("header = %+v", st.header)
	}
	if !reflect.DeepEqual(st.header.Columns, []string{"X", "Y"}) {
		t.Fatalf("columns = %v", st.header.Columns)
	}
	if st.header.IsBoolean {
		t.Fatal("non-Boolean query flagged Boolean")
	}
	if st.trailer.Status != "ok" || st.trailer.Error != nil {
		t.Fatalf("trailer = %+v", st.trailer)
	}
	if st.trailer.RowCount != len(st.rows) {
		t.Fatalf("trailer rowCount %d, streamed %d", st.trailer.RowCount, len(st.rows))
	}
	if st.trailer.Metrics == nil || st.trailer.Metrics.Batches == 0 {
		t.Fatalf("trailer metrics = %+v", st.trailer.Metrics)
	}
	sortRows(want.Tuples)
	sortRows(st.rows)
	if !reflect.DeepEqual(want.Tuples, st.rows) {
		t.Fatalf("v2 rows %v != buffered engine rows %v", st.rows, want.Tuples)
	}
	if len(st.rows) == 0 {
		t.Fatal("triangle query should produce rows")
	}
}

// A repeat execute — and a renamed-but-isomorphic variant — must be served
// from the result cache without re-evaluating, with identical rows.
func TestExecuteResultCacheRepeatAndRename(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)
	req := ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 2}

	first := readStream(t, postJSON(t, ts, "/v2/execute", req))
	if first.header.ResultCached {
		t.Fatal("first execute claimed a result-cache hit")
	}
	second := readStream(t, postJSON(t, ts, "/v2/execute", req))
	if !second.header.ResultCached {
		t.Fatal("repeat execute missed the result cache")
	}
	sortRows(first.rows)
	sortRows(second.rows)
	if !reflect.DeepEqual(first.rows, second.rows) {
		t.Fatalf("cached rows diverge: %v vs %v", second.rows, first.rows)
	}

	// Renamed variant: same canonical structure, different variable names.
	renamed := ExecuteRequest{Tenant: "acme", K: 2,
		Query: "ans(U,V) :- r(U,V), s(V,W), t(W,U)."}
	rn := readStream(t, postJSON(t, ts, "/v2/execute", renamed))
	if !rn.header.ResultCached {
		t.Fatal("renamed variant missed the result cache")
	}
	if !reflect.DeepEqual(rn.header.Columns, []string{"U", "V"}) {
		t.Fatalf("renamed columns = %v (should use the requesting head)", rn.header.Columns)
	}
	sortRows(rn.rows)
	if !reflect.DeepEqual(rn.rows, first.rows) {
		t.Fatalf("renamed rows %v != original %v", rn.rows, first.rows)
	}

	stats := getStats(t, ts)
	if stats.Results == nil || stats.Results.Hits < 2 || stats.Results.Inserts == 0 {
		t.Fatalf("result cache stats = %+v", stats.Results)
	}
}

// A catalog PUT bumps the version: the next execute must re-evaluate
// against the new data, never replay the stale answer.
func TestExecuteResultCacheInvalidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)
	req := ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 2}

	before := readStream(t, postJSON(t, ts, "/v2/execute", req))
	if len(before.rows) != 2 {
		t.Fatalf("seed answer = %v", before.rows)
	}

	// Same schema, one closing edge removed: the (2,3) triangle is gone.
	smaller := `relation r (a,b)
1,2
2,3
end
relation s (b,c)
2,3
3,4
end
relation t (c,a)
3,1
end
`
	uploadCatalog(t, ts, "acme", smaller)
	after := readStream(t, postJSON(t, ts, "/v2/execute", req))
	if after.header.ResultCached {
		t.Fatal("stale answer served after catalog PUT")
	}
	if after.header.CatalogVersion != 2 {
		t.Fatalf("catalog version = %d", after.header.CatalogVersion)
	}
	if len(after.rows) != 1 || after.rows[0][0] != 1 || after.rows[0][1] != 2 {
		t.Fatalf("post-PUT answer = %v, want [[1 2]]", after.rows)
	}
}

// Boolean queries stream a header and a trailer carrying the verdict, and
// the verdict is result-cached like any answer.
func TestExecuteStreamBoolean(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)
	req := ExecuteRequest{Tenant: "acme", K: 2,
		Query: "ans() :- r(X,Y), s(Y,Z), t(Z,X)."}

	st := readStream(t, postJSON(t, ts, "/v2/execute", req))
	if !st.header.IsBoolean || len(st.header.Columns) != 0 {
		t.Fatalf("header = %+v", st.header)
	}
	if st.chunks != 0 || st.trailer.RowCount != 0 {
		t.Fatalf("Boolean stream leaked row frames: %+v", st)
	}
	if st.trailer.Boolean == nil || !*st.trailer.Boolean {
		t.Fatalf("trailer = %+v", st.trailer)
	}
	again := readStream(t, postJSON(t, ts, "/v2/execute", req))
	if !again.header.ResultCached || again.trailer.Boolean == nil || !*again.trailer.Boolean {
		t.Fatalf("cached Boolean replay = %+v / %+v", again.header, again.trailer)
	}
}

// Every endpoint, v1 and v2, shares the structured error envelope.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)

	// Pre-stream failures on /v2 are plain JSON errors, not NDJSON.
	bad := decodeAs[ErrorResponse](t,
		postJSON(t, ts, "/v2/execute", ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 99}),
		http.StatusBadRequest)
	if bad.Error.Code != "bad_request" || bad.Error.Message == "" {
		t.Fatalf("v2 envelope = %+v", bad.Error)
	}
	missing := decodeAs[ErrorResponse](t,
		postJSON(t, ts, "/v2/execute", ExecuteRequest{Tenant: "ghost", Query: triangleQuery}),
		http.StatusNotFound)
	if missing.Error.Code != "not_found" {
		t.Fatalf("v2 envelope = %+v", missing.Error)
	}
	infeasible := decodeAs[ErrorResponse](t,
		postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 1}),
		http.StatusUnprocessableEntity)
	if infeasible.Error.Code != "infeasible" {
		t.Fatalf("v1 envelope = %+v", infeasible.Error)
	}
}

// Disabling the result cache must not break the execute paths.
func TestExecuteResultCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{ResultCacheBytes: -1})
	uploadCatalog(t, ts, "acme", triangleCatalog)
	req := ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 2}
	for i := 0; i < 2; i++ {
		st := readStream(t, postJSON(t, ts, "/v2/execute", req))
		if st.header.ResultCached {
			t.Fatal("hit with caching disabled")
		}
	}
	if s.results != nil {
		t.Fatal("negative budget should disable the cache")
	}
	if stats := getStats(t, ts); stats.Results != nil {
		t.Fatalf("stats should omit a disabled result cache: %+v", stats.Results)
	}
}
