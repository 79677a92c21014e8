package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

// Serve on a random port, answer a request, cancel the context: graceful
// shutdown must return nil within its bound.
func TestServeGracefulShutdown(t *testing.T) {
	s := New(Config{Log: nil})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0") }()

	deadline := time.Now().Add(5 * time.Second)
	for s.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never bound an address")
		}
		time.Sleep(time.Millisecond)
	}
	url := fmt.Sprintf("http://%s/healthz", s.Addr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}

// The admission limiter rejects excess concurrency with 429 rather than
// queueing without bound.
func TestLimiterRejectsExcess(t *testing.T) {
	s := New(Config{MaxInFlight: 1})
	block := make(chan struct{})
	entered := make(chan struct{})
	h := s.instrument("plan", true, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
		w.WriteHeader(http.StatusOK)
	}))

	rec1 := make(chan int, 1)
	go func() {
		w := newRecorder()
		h.ServeHTTP(w, newTestRequest())
		rec1 <- w.code
	}()
	<-entered
	w2 := newRecorder()
	h.ServeHTTP(w2, newTestRequest()) // limiter full → immediate 429
	if w2.code != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", w2.code)
	}
	close(block)
	if code := <-rec1; code != http.StatusOK {
		t.Fatalf("first request status %d, want 200", code)
	}

	// The rejection is counted but not observed into the latency
	// histogram; only the served request is.
	s.metrics.mu.Lock()
	rejected := s.metrics.requests["plan"][http.StatusTooManyRequests]
	s.metrics.mu.Unlock()
	if rejected != 1 {
		t.Fatalf("429 count = %d, want 1", rejected)
	}
	if got := s.metrics.latencies["plan"].total.Load(); got != 1 {
		t.Fatalf("latency observations = %d, want 1 (429s must not skew the histogram)", got)
	}
}

// A request that exceeds RequestTimeout must be recorded with the 503 the
// client received, not the inner handler's late status.
func TestTimeoutRecordedAs503(t *testing.T) {
	s := New(Config{RequestTimeout: 10 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	h := s.route("plan", false, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	w := newRecorder()
	h.ServeHTTP(w, newTestRequest())
	if w.code != http.StatusServiceUnavailable {
		t.Fatalf("client saw status %d, want 503", w.code)
	}
	s.metrics.mu.Lock()
	got := s.metrics.requests["plan"][http.StatusServiceUnavailable]
	s.metrics.mu.Unlock()
	if got != 1 {
		t.Fatalf("recorded 503s = %d, want 1", got)
	}
}

// A request that outlasts ShutdownTimeout: the drain gives up and Serve
// reports the deadline error instead of hanging, while the slow request is
// still allowed to finish on its live connection (graceful shutdown never
// kills active work).
func TestShutdownTimeoutExpiresWithSlowRequest(t *testing.T) {
	unregister := chaos.Register(chaos.NewSchedule(3,
		chaos.Rule{Point: chaos.ServerHandler, Prob: 1, Effect: chaos.Delay, Delay: 600 * time.Millisecond, Limit: 1},
	))
	defer unregister()

	s := New(Config{ShutdownTimeout: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never bound an address")
		}
		time.Sleep(time.Millisecond)
	}

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", s.Addr()))
		if err == nil {
			resp.Body.Close()
		}
		reqDone <- err
	}()
	for s.metrics.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the handler")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Serve returned %v, want deadline exceeded from the expired drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve hung past its shutdown timeout")
	}
	select {
	case err := <-reqDone:
		if err != nil {
			t.Fatalf("slow request was killed by shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow request never completed")
	}
}

// Shutdown is idempotent: Serve's own Close plus any number of explicit
// Close calls (concurrently, even) must neither panic nor hang.
func TestDoubleShutdownIsIdempotent(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never bound an address")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("repeated Close hung")
	}
}

type recorder struct {
	header http.Header
	code   int
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(c int) {
	if r.code == 0 {
		r.code = c
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return len(b), nil
}

func newTestRequest() *http.Request {
	req, _ := http.NewRequest(http.MethodPost, "/v1/plan", nil)
	return req
}
