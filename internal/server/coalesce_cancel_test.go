package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/chaos"
)

// Audit trail for the coalescing/cancellation interaction: a request that
// gives up (its context cancels while the shared computation is running)
// must not poison the requests coalesced with it. Concurrent misses on one
// canonical plan key join the Planner's singleflight, whose search runs to
// completion in its own goroutine whatever happens to the waiters. These
// tests pin that, with an injected delay holding the singleflight compute
// mid-flight so the cancellation deterministically lands while the
// computation is running.

// TestCancelledRequestDoesNotPoisonCoalescedPeerHTTP drives the race end to
// end: two identical /v1/plan requests coalesce in the singleflight,
// whose compute is held by injection, and one client times out. The peer
// must receive the correct plan from the one shared search, and a later
// chaos-free request must be served the same bytes from cache — proving
// the cancellation neither corrupted nor evicted the shared result.
func TestCancelledRequestDoesNotPoisonCoalescedPeerHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)

	unregister := chaos.Register(chaos.NewSchedule(1,
		chaos.Rule{Point: chaos.CacheFlight, Prob: 1, Effect: chaos.Delay, Delay: 80 * time.Millisecond},
	))
	defer unregister()

	body, _ := json.Marshal(PlanRequest{Tenant: "acme", Query: triangleQuery, K: 3})
	post := func(ctx context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		return ts.Client().Do(req)
	}

	type result struct {
		resp *http.Response
		err  error
	}
	cancelCh := make(chan result, 1)
	peerCh := make(chan result, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	go func() { r, err := post(ctx); cancelCh <- result{r, err} }()
	go func() { r, err := post(context.Background()); peerCh <- result{r, err} }()

	r := <-cancelCh
	if r.err == nil {
		r.resp.Body.Close()
		t.Fatal("cancelled request unexpectedly completed; race not exercised")
	}
	if !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("cancelled request: got %v, want deadline exceeded", r.err)
	}

	r = <-peerCh
	if r.err != nil {
		t.Fatalf("peer request failed: %v", r.err)
	}
	peer := decodeAs[PlanResponse](t, r.resp, http.StatusOK)
	if peer.Plan == nil {
		t.Fatal("peer got no plan")
	}
	peerBytes, _ := json.Marshal(peer.Plan)
	if c := s.PlannerStats().Plans.Computations; c != 1 {
		t.Fatalf("plan computations = %d, want 1: the requests did not coalesce", c)
	}

	// Chaos off: the same request again must hit the cache and return the
	// same bytes — the cancelled member neither failed nor falsified the
	// shared computation.
	unregister()
	resp, err := post(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after := decodeAs[PlanResponse](t, resp, http.StatusOK)
	if !after.CacheHit {
		t.Error("post-race request missed the cache: shared result was not retained")
	}
	afterBytes, _ := json.Marshal(after.Plan)
	if !bytes.Equal(peerBytes, afterBytes) {
		t.Errorf("plan changed across the race:\n  peer  %s\n  after %s", peerBytes, afterBytes)
	}
	if peer.EstimatedCost != after.EstimatedCost {
		t.Errorf("cost changed across the race: %v vs %v", peer.EstimatedCost, after.EstimatedCost)
	}
}

// TestCancelledSoloRequestLeavesCacheUsable covers the uncoalesced path: the
// handler's context cancels while the singleflight compute is held; the
// computation still completes in its own goroutine and later requests are
// served from a healthy cache.
func TestCancelledSoloRequestLeavesCacheUsable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadCatalog(t, ts, "acme", triangleCatalog)

	unregister := chaos.Register(chaos.NewSchedule(1,
		chaos.Rule{Point: chaos.CacheFlight, Prob: 1, Effect: chaos.Delay, Delay: 60 * time.Millisecond, Limit: 1},
	))
	defer unregister()

	body, _ := json.Marshal(PlanRequest{Tenant: "acme", Query: triangleQuery, K: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := ts.Client().Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.Skip("request completed before the client deadline; race not exercised")
	}

	unregister()
	resp := postJSON(t, ts, "/v1/plan", PlanRequest{Tenant: "acme", Query: triangleQuery, K: 3})
	out := decodeAs[PlanResponse](t, resp, http.StatusOK)
	if out.Plan == nil {
		t.Fatal("no plan after cancelled solo request")
	}
}
