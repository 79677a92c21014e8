// Package chaos is the deterministic fault-injection layer behind the
// resilience harness: named injection points threaded through the planner
// (search-family enumeration), the cache (singleflight computes, LRU
// inserts), the serving layer (handlers, catalog publication, shutdown,
// hint drain), the cluster tier, the plan store and the streaming engine,
// plus a seed-reproducible fault Schedule that decides, per hit, whether to
// delay, panic, fail, or drop.
//
// The design contract is zero cost on the hot path: every hook site calls
// Hit, and with no injector registered Hit is one atomic pointer load and a
// branch — no allocation, no lock, no time syscall. The standing
// allocation-ceiling tests and the CI bench-regression gate pin this.
//
// Faults are requested by sites, not forced on them: a site passes the set
// of effects it can honor safely (e.g. the singleflight compute allows
// Delay|Fail, the search-family enumeration Delay only), and the injector's
// answer is masked by that set. Injected panics carry a sentinel recognized
// by IsInjected, so recovery paths never swallow a genuine bug.
package chaos

import (
	"errors"
	"sync/atomic"
)

// Point names an injection site. Sites are stable identifiers: a failing
// seed + schedule reproduces only if the set of points and their hit sites
// stay put, so new points are appended, never renumbered.
type Point uint8

const (
	// Points 0 and 1 were the waves of a since-deleted parallel solver.
	// They stay reserved because Schedule seeds every fault draw with the
	// point's number: renumbering would make every seed replay a different
	// schedule.
	_ Point = iota
	_
	// CostFamilyAt fires inside PlanSearchFamily.At before a width's
	// k-vertex enumeration, widening the race window between concurrent
	// cold misses on one structure.
	CostFamilyAt
	// CacheFlight fires inside the singleflight compute, after the flight
	// is registered and before the search runs — coalesced waiters race
	// cancellation against the injected latency. Allows Delay and Fail.
	CacheFlight
	// CacheAdd fires on LRU insert. Drop discards the entry instead of
	// storing it (an instant eviction), forcing recomputation under load.
	CacheAdd
	// ServerHandler fires per admitted HTTP request, before the handler —
	// injected latency holds an admission slot and starves the limiter.
	ServerHandler
	// ServerCatalogPut fires between catalog analysis and publication,
	// widening the window a catalog PUT races in-flight plans.
	ServerCatalogPut
	// ServerShutdown fires on the graceful-shutdown path before the HTTP
	// server begins draining.
	ServerShutdown
	// ClusterPeerRPC fires in the peer RPC client before each call to
	// another replica. Delay injects inter-node latency; Fail simulates a
	// network partition (the call errors without touching the wire), so
	// peer fetches must fall back to the local cold path.
	ClusterPeerRPC
	// StoreAppend fires in the persistent plan store before each record
	// append. Delay stalls the write; Drop tears it — only a prefix of the
	// record reaches the segment and the store behaves as crashed (all
	// later appends fail), so recovery-on-reopen is the only way forward.
	StoreAppend
	// ClusterPeerBreaker fires when a peer's circuit breaker would admit a
	// half-open probe after its cooldown. Fail denies the probe — the
	// breaker stays open, modelling a flapping link that keeps failing
	// health probes while real traffic would succeed. Delay stalls the
	// admission decision.
	ClusterPeerBreaker
	// ServerHintDrain fires in the hinted-handoff drainer before each
	// queued hint is replayed toward its owner. Delay stalls the drain;
	// Fail fails the replay attempt (the hint stays queued for the next
	// pass), so convergence after a heal must tolerate a lossy drain path.
	ServerHintDrain
	// EngineBatch fires in the streaming evaluator at the top of every
	// batch pull — after the stream has been established and, typically,
	// after some row frames are already on the wire. Delay stalls the
	// stream mid-flight; Fail aborts it, which the serving layer must
	// surface as a well-formed error trailer, never a silently truncated
	// success.
	EngineBatch

	numPoints = int(EngineBatch) + 1
)

var pointNames = [numPoints]string{
	"", // reserved
	"", // reserved
	"cost.family.at",
	"cache.flight",
	"cache.add",
	"server.handler",
	"server.catalog.put",
	"server.shutdown",
	"cluster.peer.rpc",
	"store.append",
	"cluster.peer.breaker",
	"server.hint.drain",
	"engine.batch",
}

func (p Point) String() string {
	if int(p) < len(pointNames) && pointNames[p] != "" {
		return pointNames[p]
	}
	return "chaos.point.unknown"
}

// NumPoints is the number of defined injection points.
func NumPoints() int { return numPoints }

// Effect is a bitmask of fault effects. Delay and Panic are performed by
// the injector inside Hit (sleep; panic with an IsInjected sentinel); Fail
// and Drop are returned to the site, which honors them in a site-specific
// way (fail the computation with ErrInjected; discard the artifact).
type Effect uint8

const (
	Delay Effect = 1 << iota
	Panic
	Fail
	Drop
)

func (e Effect) String() string {
	if e == 0 {
		return "none"
	}
	var s string
	add := func(bit Effect, name string) {
		if e&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(Delay, "delay")
	add(Panic, "panic")
	add(Fail, "fail")
	add(Drop, "drop")
	return s
}

// ErrInjected is the failure a site reports when the injector answers Fail.
// It is deliberately not core.ErrNoDecomposition or any other domain error:
// injected failures must never be mistaken for (or cached as) real results.
var ErrInjected = errors.New("chaos: injected failure")

// injectedPanic is the value an injected Panic carries.
type injectedPanic struct{ p Point }

func (ip injectedPanic) String() string { return "chaos: injected panic at " + ip.p.String() }

// IsInjected reports whether a recovered panic value was injected by this
// package. Recovery paths must re-panic anything else.
func IsInjected(r any) bool {
	_, ok := r.(injectedPanic)
	return ok
}

// Injector decides faults at injection points. Act is called concurrently
// from every hooked goroutine; implementations must be safe for concurrent
// use and must only perform effects present in allowed.
type Injector interface {
	Act(p Point, allowed Effect) Effect
}

// holder wraps the interface so it can live in an atomic.Pointer.
type holder struct{ inj Injector }

var active atomic.Pointer[holder]

// Register installs inj as the process-wide injector and returns the
// deregistration function. At most one injector may be active; Register
// panics on a second concurrent registration — chaos runs are sequential
// by construction (a shared fault plane cannot serve two experiments).
func Register(inj Injector) (unregister func()) {
	h := &holder{inj: inj}
	if !active.CompareAndSwap(nil, h) {
		panic("chaos: injector already registered")
	}
	return func() { active.CompareAndSwap(h, nil) }
}

// Active reports whether an injector is registered. Sites with non-trivial
// fault scaffolding (e.g. a recover wrapper) branch on it so the scaffold
// itself is skipped on the hot path.
func Active() bool { return active.Load() != nil }

// Hit consults the registered injector at point p, offering the effects the
// site can honor. With no injector registered it is a no-op returning 0.
// Delay (sleep) and Panic happen inside the call; Fail and Drop are
// returned for the site to honor.
func Hit(p Point, allowed Effect) Effect {
	h := active.Load()
	if h == nil {
		return 0
	}
	return h.inj.Act(p, allowed) & allowed
}
