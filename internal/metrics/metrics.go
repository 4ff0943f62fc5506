// Package metrics is the allocator observability layer: instrumented locks,
// occupancy snapshots, and Prometheus/JSON export with a linter for it.
//
// The paper argues Hoard's scalability by reasoning about lock acquisitions
// and heap occupancy (u/a); this package makes those quantities directly
// observable instead of inferred from simulator cost charges. Everything is
// strictly opt-in: an allocator built without a Registry-wrapped lock
// factory pays zero overhead (no wrapper objects exist at all), and with one
// the per-acquisition cost is two monotonic clock reads plus a handful of
// uncontended atomic adds.
//
// Registry.WrapFactory is the tree's one lock-counting env.LockFactory: the
// public package's Config.Metrics and the tests and benchmarks that count
// lock acquisitions all read the same counters through it.
//
// Layering: metrics depends only on internal/env. The allocators never
// import it — the public package (hoard.go) wraps lock factories and wires
// sampling callbacks, so the allocator code stays observability-agnostic.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hoardgo/internal/env"
)

// LockStats is a snapshot of one instrumented lock's counters.
type LockStats struct {
	// Name is the factory-supplied lock name (e.g. "hoard.heap3").
	Name string `json:"name"`
	// Acquires counts successful acquisitions (Lock and successful
	// TryLock).
	Acquires int64 `json:"acquires"`
	// Contended counts Lock calls that found the lock held and had to
	// wait.
	Contended int64 `json:"contended"`
	// TryMisses counts TryLock calls that found the lock held and gave up.
	TryMisses int64 `json:"try_misses"`
	// WaitNS is the total wall time Lock callers spent waiting, in
	// nanoseconds.
	WaitNS int64 `json:"wait_ns"`
	// HoldNS is the total wall time the lock was held, in nanoseconds.
	HoldNS int64 `json:"hold_ns"`
}

// Registry creates instrumented locks and aggregates their counters. One
// Registry instruments one allocator.
type Registry struct {
	mu    sync.Mutex
	locks []*lockMetrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// WrapFactory returns a lock factory whose locks wrap inner's with this
// registry's counters. It works in both environments — the wrapper speaks
// env.Lock — with one documented perturbation in the simulated one: a
// contended acquisition probes TryLock first (that is how contention is
// detected without touching the inner lock's internals), which the simulator
// charges as one extra failed try.
func (r *Registry) WrapFactory(inner env.LockFactory) env.LockFactory {
	return wrapFactory{inner: inner, r: r}
}

type wrapFactory struct {
	inner env.LockFactory
	r     *Registry
}

// NewLock implements env.LockFactory.
func (f wrapFactory) NewLock(name string) env.Lock {
	m := &lockMetrics{name: name, inner: f.inner.NewLock(name)}
	f.r.mu.Lock()
	f.r.locks = append(f.r.locks, m)
	f.r.mu.Unlock()
	return m
}

// LockStats returns a snapshot of every instrumented lock's counters, in
// creation order.
func (r *Registry) LockStats() []LockStats {
	r.mu.Lock()
	locks := r.locks
	r.mu.Unlock()
	out := make([]LockStats, len(locks))
	for i, m := range locks {
		out[i] = m.snapshot()
	}
	return out
}

// TotalLockStats sums every instrumented lock's counters into one record
// (Name "total").
func (r *Registry) TotalLockStats() LockStats {
	total := LockStats{Name: "total"}
	for _, st := range r.LockStats() {
		total.Acquires += st.Acquires
		total.Contended += st.Contended
		total.TryMisses += st.TryMisses
		total.WaitNS += st.WaitNS
		total.HoldNS += st.HoldNS
	}
	return total
}

// lockMetrics wraps one env.Lock with counters.
type lockMetrics struct {
	name  string
	inner env.Lock

	acquires  atomic.Int64
	contended atomic.Int64
	tryMisses atomic.Int64
	waitNS    atomic.Int64
	holdNS    atomic.Int64

	// acquiredAt is written by the holder just after acquiring and read
	// by it in Unlock; the inner lock's mutual exclusion orders the
	// accesses, so a plain field would be correct, but the race detector
	// cannot see through the env.Lock interface to the simulated lock's
	// scheduler-channel ordering, so it stays atomic.
	acquiredAt atomic.Int64
}

// Lock implements env.Lock. Contention is detected with a TryLock probe:
// exact, environment-independent, and cheaper than timing every acquisition
// against a threshold.
func (l *lockMetrics) Lock(e env.Env) {
	if l.inner.TryLock(e) {
		l.acquires.Add(1)
		l.acquiredAt.Store(time.Now().UnixNano())
		return
	}
	start := time.Now()
	l.inner.Lock(e)
	now := time.Now()
	l.contended.Add(1)
	l.waitNS.Add(now.Sub(start).Nanoseconds())
	l.acquires.Add(1)
	l.acquiredAt.Store(now.UnixNano())
}

// Unlock implements env.Lock.
func (l *lockMetrics) Unlock(e env.Env) {
	l.holdNS.Add(time.Now().UnixNano() - l.acquiredAt.Load())
	l.inner.Unlock(e)
}

// TryLock implements env.Lock.
func (l *lockMetrics) TryLock(e env.Env) bool {
	if !l.inner.TryLock(e) {
		l.tryMisses.Add(1)
		return false
	}
	l.acquires.Add(1)
	l.acquiredAt.Store(time.Now().UnixNano())
	return true
}

func (l *lockMetrics) snapshot() LockStats {
	return LockStats{
		Name:      l.name,
		Acquires:  l.acquires.Load(),
		Contended: l.contended.Load(),
		TryMisses: l.tryMisses.Load(),
		WaitNS:    l.waitNS.Load(),
		HoldNS:    l.holdNS.Load(),
	}
}

// SortLockStats orders stats by descending wait time, then descending
// acquisitions, then name — the "worst lock first" view for reports.
func SortLockStats(stats []LockStats) {
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].WaitNS != stats[j].WaitNS {
			return stats[i].WaitNS > stats[j].WaitNS
		}
		if stats[i].Acquires != stats[j].Acquires {
			return stats[i].Acquires > stats[j].Acquires
		}
		return stats[i].Name < stats[j].Name
	})
}
