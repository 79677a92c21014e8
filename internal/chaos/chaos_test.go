package chaos

import (
	"strings"
	"testing"
	"time"
)

// With no injector registered, Hit must be a true no-op: zero effects and
// zero allocations. This is the hot-path contract every hook site relies on.
func TestHitNoInjectorIsFree(t *testing.T) {
	if Active() {
		t.Fatal("injector unexpectedly active")
	}
	if got := Hit(CostFamilyAt, Delay); got != 0 {
		t.Fatalf("Hit with no injector = %v, want 0", got)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		Hit(CacheFlight, Delay|Fail)
		Hit(CacheAdd, Drop)
		Hit(ServerHandler, Delay)
	})
	if allocs != 0 {
		t.Fatalf("unregistered Hit allocates %.1f/op, want 0", allocs)
	}
}

// Register is exclusive, and unregister restores the no-op state.
func TestRegisterExclusive(t *testing.T) {
	un := Register(NewSchedule(1))
	if !Active() {
		t.Fatal("not active after Register")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Register did not panic")
			}
		}()
		Register(NewSchedule(2))
	}()
	un()
	if Active() {
		t.Fatal("still active after unregister")
	}
	un() // idempotent
}

// Equal seeds make identical decisions; different seeds diverge. The
// decision for hit n is independent of interleaving by construction.
func TestScheduleDeterministic(t *testing.T) {
	rules := []Rule{{Point: CacheFlight, Prob: 0.5, Effect: Fail}}
	run := func(seed int64) []Effect {
		s := NewSchedule(seed, rules...)
		out := make([]Effect, 64)
		for i := range out {
			out[i] = s.Act(CacheFlight, Fail)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d: seed 7 decided %v then %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical decision streams")
	}
	fails := 0
	for _, e := range a {
		if e&Fail != 0 {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("Prob=0.5 fired %d/%d times; decision hash looks broken", fails, len(a))
	}
}

// The site's allowed mask filters effects: a rule asking for Panic at a
// site that only allows Delay must not panic.
func TestAllowedMaskFilters(t *testing.T) {
	s := NewSchedule(3, Rule{Point: CacheFlight, Prob: 1, Effect: Panic | Fail})
	un := Register(s)
	defer un()
	if got := Hit(CacheFlight, Delay); got != 0 {
		t.Fatalf("masked Hit = %v, want 0", got)
	}
	if got := Hit(CacheFlight, Fail); got != Fail {
		t.Fatalf("Hit = %v, want Fail", got)
	}
}

// Injected panics carry the sentinel; foreign panics are not claimed.
func TestInjectedPanicSentinel(t *testing.T) {
	s := NewSchedule(4, Rule{Point: EngineBatch, Prob: 1, Effect: Panic})
	un := Register(s)
	defer un()
	func() {
		defer func() {
			r := recover()
			if r == nil || !IsInjected(r) {
				t.Fatalf("recover() = %v, want injected sentinel", r)
			}
		}()
		Hit(EngineBatch, Panic)
	}()
	if IsInjected("boom") || IsInjected(nil) {
		t.Fatal("IsInjected claimed a foreign panic value")
	}
}

// Limit and After bound when and how often a rule fires.
func TestLimitAndAfter(t *testing.T) {
	s := NewSchedule(5, Rule{Point: CacheAdd, Prob: 1, Effect: Drop, After: 2, Limit: 3})
	fired := 0
	for i := 0; i < 10; i++ {
		if s.Act(CacheAdd, Drop)&Drop != 0 {
			fired++
			if i < 2 {
				t.Fatalf("rule fired at hit %d despite After=2", i)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("rule fired %d times, want Limit=3", fired)
	}
	if s.Hits(CacheAdd) != 10 {
		t.Fatalf("Hits = %d, want 10", s.Hits(CacheAdd))
	}
}

// Delay rules actually sleep, and the schedule String carries everything
// needed for replay.
func TestDelayAndString(t *testing.T) {
	s := NewSchedule(6,
		Rule{Point: ServerHandler, Prob: 1, Effect: Delay, Delay: 10 * time.Millisecond},
		Rule{Point: CacheFlight, Prob: 0.25, Effect: Fail, Limit: 2},
	)
	start := time.Now()
	if s.Act(ServerHandler, Delay)&Delay == 0 {
		t.Fatal("delay rule did not fire")
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("slept %v, want >= 10ms", el)
	}
	str := s.String()
	for _, want := range []string{"seed=6", "server.handler", "delay=10ms", "cache.flight", "p=0.25", "limit=2"} {
		if !strings.Contains(str, want) {
			t.Fatalf("schedule string %q missing %q", str, want)
		}
	}
}

func TestVerifyNoGoroutineLeak(t *testing.T) {
	if err := VerifyNoGoroutineLeak(1<<30, time.Second); err != nil {
		t.Fatalf("impossible leak reported: %v", err)
	}
	stop := make(chan struct{})
	go func() { <-stop }()
	err := VerifyNoGoroutineLeak(0, 50*time.Millisecond)
	if err == nil {
		t.Fatal("leak not detected")
	}
	if !strings.Contains(err.Error(), "goroutine leak") {
		t.Fatalf("unexpected error: %v", err)
	}
	close(stop)
}

// Schedule seeds every fault draw with the point's number, so a point's
// value is part of every recorded seed's meaning: each surviving point keeps
// its number and name, and the reserved values stay unnamed.
func TestPointNumbersStable(t *testing.T) {
	want := []struct {
		p    Point
		n    int
		name string
	}{
		{CostFamilyAt, 2, "cost.family.at"},
		{CacheFlight, 3, "cache.flight"},
		{CacheAdd, 4, "cache.add"},
		{ServerHandler, 5, "server.handler"},
		{ServerCatalogPut, 6, "server.catalog.put"},
		{ServerShutdown, 7, "server.shutdown"},
		{ClusterPeerRPC, 8, "cluster.peer.rpc"},
		{StoreAppend, 9, "store.append"},
		{ClusterPeerBreaker, 10, "cluster.peer.breaker"},
		{ServerHintDrain, 11, "server.hint.drain"},
		{EngineBatch, 12, "engine.batch"},
	}
	for _, w := range want {
		if int(w.p) != w.n || w.p.String() != w.name {
			t.Errorf("point %q = %d, want %q = %d", w.p, int(w.p), w.name, w.n)
		}
	}
	if NumPoints() != 13 {
		t.Errorf("NumPoints() = %d, want 13", NumPoints())
	}
	for _, p := range []Point{0, 1} {
		if got := p.String(); got != "chaos.point.unknown" {
			t.Errorf("reserved point %d named %q", p, got)
		}
	}
}
