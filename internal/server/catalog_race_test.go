package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// Race hammer for the catalog registry: concurrent PUT /v1/catalogs/{tenant}
// against in-flight /v1/plan and /v2/execute on the same tenant. Every PUT
// re-uploads the same catalog text, so whatever version a plan snapshots,
// the statistics are identical and the plan bytes must never change; PUT
// acknowledgements must carry strictly increasing versions. Run under -race
// this also proves the registry's reader/writer paths are clean. An
// injected delay inside the PUT handler widens the analyze→publish window
// so readers overlap writers as much as possible.
func TestCatalogPutRacesInFlightPlans(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{name: "direct", cfg: Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			uploadCatalog(t, ts, "acme", triangleCatalog)

			unregister := chaos.Register(chaos.NewSchedule(7,
				chaos.Rule{Point: chaos.ServerCatalogPut, Prob: 0.5, Effect: chaos.Delay, Jitter: 2 * time.Millisecond},
			))
			defer unregister()

			// Reference plan before the churn starts.
			resp := postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 3})
			ref := decodeAs[PlanResponse](t, resp, http.StatusOK)
			refBytes, _ := json.Marshal(ref.Plan)

			const (
				writers = 3
				readers = 5
				ops     = 15
			)
			var wg sync.WaitGroup
			var lastVersion atomic.Uint64
			lastVersion.Store(ref.CatalogVersion)
			errc := make(chan string, writers*ops+readers*ops)

			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					prev := uint64(0)
					for i := 0; i < ops; i++ {
						resp := doPut(t, ts, "/v1/catalogs/acme", triangleCatalog)
						if resp.StatusCode != http.StatusOK {
							body, _ := io.ReadAll(resp.Body)
							resp.Body.Close()
							errc <- "PUT status " + resp.Status + ": " + string(body)
							return
						}
						var ack CatalogResponse
						err := json.NewDecoder(resp.Body).Decode(&ack)
						resp.Body.Close()
						if err != nil {
							errc <- "PUT decode: " + err.Error()
							return
						}
						// Versions are strictly increasing as observed by any
						// single writer (global order is pinned by the registry's
						// own tests; acks interleave across writers here).
						if ack.Version <= prev {
							errc <- "catalog version not increasing for one writer"
							return
						}
						prev = ack.Version
						// Track a high-water mark for the final monotonicity check.
						for {
							cur := lastVersion.Load()
							if ack.Version <= cur || lastVersion.CompareAndSwap(cur, ack.Version) {
								break
							}
						}
					}
				}()
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						if i%3 == 2 {
							st := readStream(t, postJSON(t, ts, "/v2/execute", ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 3}))
							if st.trailer.Status != "ok" || st.trailer.RowCount != 2 || len(st.rows) != 2 {
								errc <- "execute row count changed under churn"
							}
							continue
						}
						resp := postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 3})
						out := decodeAs[PlanResponse](t, resp, http.StatusOK)
						got, _ := json.Marshal(out.Plan)
						if !bytes.Equal(got, refBytes) {
							errc <- "plan bytes changed under catalog churn (identical stats)"
						}
						if out.CatalogVersion < ref.CatalogVersion {
							errc <- "plan served against a version older than the pre-churn catalog"
						}
					}
				}(r)
			}
			wg.Wait()
			close(errc)
			for msg := range errc {
				t.Error(msg)
			}

			// Post-churn: the tenant still plans, and the final ack version is
			// the registry's current version.
			resp = postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 3})
			final := decodeAs[PlanResponse](t, resp, http.StatusOK)
			if final.CatalogVersion != lastVersion.Load() {
				t.Errorf("final catalog version %d, want high-water %d", final.CatalogVersion, lastVersion.Load())
			}
			finalBytes, _ := json.Marshal(final.Plan)
			if !bytes.Equal(finalBytes, refBytes) {
				t.Error("plan bytes differ after churn settled")
			}
		})
	}
}

// Two complete triangle datasets with disjoint answer sets. Every delta
// below replaces all three relations in one atomic PATCH, so every
// published catalog version answers the triangle query with exactly one of
// the two sets — a stream that ever mixes state from two versions would
// produce a partial or empty answer, which the readers reject.
const (
	deltaTriangleA = `relation r (a,b)
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
	deltaTriangleB = `relation r (a,b)
5,6
6,7
end
relation s (b,c)
6,7
7,8
end
relation t (c,a)
7,5
8,6
end
`
)

// TestCatalogDeltaRacesInFlightStreams hammers PATCH /v1/catalogs against
// in-flight /v2/execute streams and /v1/plan requests on the same tenant.
// Writers flip the whole triangle between dataset A and dataset B (each
// flip one atomic delta); readers assert every stream is internally
// consistent — its rows are exactly answer set A or exactly answer set B,
// its trailer is a clean "ok", and its catalog version never regresses for
// that reader. An injected delay inside the PATCH handler widens the
// apply→publish window. Run under -race this also exercises the
// delta-invalidation paths (result-cache carry, plan re-key skip, column
// store advance) against concurrent readers.
func TestCatalogDeltaRacesInFlightStreams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", deltaTriangleA)

	unregister := chaos.Register(chaos.NewSchedule(11,
		chaos.Rule{Point: chaos.ServerCatalogPut, Prob: 0.5, Effect: chaos.Delay, Jitter: 2 * time.Millisecond},
	))
	defer unregister()

	answerA := [][]int32{{1, 2}, {2, 3}}
	answerB := [][]int32{{5, 6}, {6, 7}}

	const (
		writers = 2
		readers = 4
		ops     = 12
	)
	var wg sync.WaitGroup
	errc := make(chan string, (writers+readers)*ops)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				delta := deltaTriangleA
				if (w+i)%2 == 0 {
					delta = deltaTriangleB
				}
				resp := doPatchRaw(t, ts.URL+"/v1/catalogs/acme", delta)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var ack CatalogDeltaResponse
					if err := json.Unmarshal(body, &ack); err != nil {
						errc <- "PATCH decode: " + err.Error()
						return
					}
					if len(ack.DataChanged) != 3 {
						errc <- "PATCH did not report all three relations as data-changed"
					}
				case http.StatusConflict:
					// An unpinned delta can exhaust its CAS retries under
					// contention; that is a legal outcome, but it must carry
					// the shared envelope.
					var env ErrorResponse
					if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "conflict" {
						errc <- "PATCH 409 without a conflict envelope: " + string(body)
					}
				default:
					errc <- "PATCH status " + resp.Status + ": " + string(body)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastVersion := uint64(0)
			for i := 0; i < ops; i++ {
				if i%3 == 2 {
					resp := postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 3})
					out := decodeAs[PlanResponse](t, resp, http.StatusOK)
					if out.Plan == nil {
						errc <- "plan request returned no plan under delta churn"
					}
					continue
				}
				st := readStream(t, postJSON(t, ts, "/v2/execute", ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 3}))
				if st.trailer.Status != "ok" {
					errc <- "stream trailer status " + st.trailer.Status + " under delta churn"
					continue
				}
				sortRows(st.rows)
				if !reflect.DeepEqual(st.rows, answerA) && !reflect.DeepEqual(st.rows, answerB) {
					errc <- "stream mixed catalog versions: rows neither answer set A nor B"
				}
				if st.header.CatalogVersion < lastVersion {
					errc <- "stream catalog version regressed for one reader"
				}
				lastVersion = st.header.CatalogVersion
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}

	// Churn settled: one more delta pinned to the current version must
	// apply cleanly, and the post-delta answer must be exactly its dataset.
	resp := postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 3})
	cur := decodeAs[PlanResponse](t, resp, http.StatusOK)
	ack := patchCatalog(t, ts, "acme", "", deltaTriangleB)
	if ack.Version <= cur.CatalogVersion {
		t.Fatalf("settling delta version %d did not advance past %d", ack.Version, cur.CatalogVersion)
	}
	final := readStream(t, postJSON(t, ts, "/v2/execute", ExecuteRequest{Tenant: "acme", Query: triangleQuery, K: 3}))
	sortRows(final.rows)
	if !reflect.DeepEqual(final.rows, [][]int32{{5, 6}, {6, 7}}) {
		t.Fatalf("post-churn rows = %v, want dataset B", final.rows)
	}
	if final.header.CatalogVersion != ack.Version {
		t.Fatalf("post-churn stream at version %d, want %d", final.header.CatalogVersion, ack.Version)
	}
}
