// Package env abstracts the execution environment an allocator runs in.
//
// The Hoard reproduction runs the same allocator code in two environments:
//
//   - Real: locks are sync.Mutex, cost charging and cache touches are no-ops,
//     and goroutines run truly concurrently. Used by stress tests, examples,
//     and wall-clock benchmarks.
//
//   - Simulated: locks are virtual locks managed by the discrete-event
//     multiprocessor simulator (internal/simproc), Charge advances a virtual
//     clock, and Touch drives a cache-coherence model (internal/cachesim).
//     Used to reproduce the paper's 1-14 processor speedup figures on any
//     host, deterministically.
//
// Allocator code is written once against these interfaces; which environment
// it observes is decided by the Thread handles passed into each operation and
// the LockFactory passed at construction. Every allocator takes its locks
// through plain Lock, Unlock and TryLock calls. Counting them is the job of
// a wrapping factory, metrics.Registry.WrapFactory, which works over either
// environment's factory.
package env

import "sync"

// CostKind names an abstract unit of allocator or application work. The
// simulator maps each kind to virtual nanoseconds via its cost model; the
// real environment ignores charges entirely.
type CostKind int

// Charging discipline (asserted by the cost tests in internal/core): every
// small malloc charges OpMallocFast exactly once; a malloc that had to visit
// the global heap or the OS additionally charges OpMallocSlow exactly once —
// a surcharge on top of the fast-path cost, never a replacement. The batch
// paths keep the same per-block charges (the per-block bookkeeping really
// happens) and add one OpMallocBatch/OpFreeBatch per call for the batch
// setup; their saving shows up in lock costs, which are charged per
// acquisition, not per block.
const (
	// OpMallocFast is the bookkeeping cost of a malloc that is satisfied
	// from a superblock already owned by the calling thread's heap.
	OpMallocFast CostKind = iota
	// OpMallocSlow is the extra cost of a malloc that must visit the
	// global heap or the OS to obtain a superblock. It is a surcharge:
	// slow-path mallocs charge OpMallocFast as well (the fast-path
	// bookkeeping still runs), plus one OpMallocSlow per superblock
	// acquisition.
	OpMallocSlow
	// OpFree is the bookkeeping cost of a free.
	OpFree
	// OpListScan is the cost of inspecting one superblock or free-list
	// node while searching for free space. The discipline is per node:
	// scans charge one unit per list head consulted plus one per node
	// actually visited, so walking a long fullness-group list costs
	// proportionally more than peeking at an empty one (a flat per-class
	// charge would under-bill long group-0 scans and skew the cost model
	// the experiments are built on).
	OpListScan
	// OpSuperblockMove is the cost of transferring one superblock between
	// heaps (unlinking, relinking, statistics updates).
	OpSuperblockMove
	// OpOSAlloc is the cost of obtaining or returning memory from the
	// simulated OS (an mmap-equivalent).
	OpOSAlloc
	// OpMallocBatch is the per-call setup cost of a batched malloc (a
	// magazine refill in internal/core): argument marshalling and
	// the single accounting update. Charged once per batch on top
	// of the per-block OpMallocFast charges.
	OpMallocBatch
	// OpFreeBatch is the per-call setup cost of a batched free (a magazine
	// or remote-batch flush in internal/core): the owner-grouping
	// bookkeeping and the per-owner-group accounting updates. Charged once
	// per batch on top of the per-block OpFree charges.
	OpFreeBatch
	// OpWork is application-level computation, in abstract work units as
	// charged by workloads (the cost model scales it to time).
	OpWork
	// NumCostKinds is the number of distinct cost kinds.
	NumCostKinds
)

// String returns a short human-readable name for the cost kind.
func (k CostKind) String() string {
	switch k {
	case OpMallocFast:
		return "malloc-fast"
	case OpMallocSlow:
		return "malloc-slow"
	case OpFree:
		return "free"
	case OpListScan:
		return "list-scan"
	case OpSuperblockMove:
		return "superblock-move"
	case OpOSAlloc:
		return "os-alloc"
	case OpMallocBatch:
		return "malloc-batch"
	case OpFreeBatch:
		return "free-batch"
	case OpWork:
		return "work"
	default:
		return "unknown"
	}
}

// Env is the per-thread view of the execution environment. An Env value is
// only ever used by the single thread it was created for; it is not safe for
// concurrent use (each thread gets its own).
type Env interface {
	// Charge records n units of work of the given kind against the
	// calling thread's clock. In the real environment this is a no-op.
	Charge(kind CostKind, n int64)

	// Touch records a memory access of n bytes at the given simulated
	// address, driving the cache-coherence cost model. write reports
	// whether the access mutates the memory. No-op in the real
	// environment.
	Touch(addr uint64, n int, write bool)

	// ThreadID returns the stable identifier of the thread this Env
	// belongs to. IDs are small non-negative integers assigned in spawn
	// order.
	ThreadID() int
}

// Lock is a mutual-exclusion lock usable from either environment. Methods
// take the caller's Env so the simulator knows which virtual thread is
// acquiring or blocking.
type Lock interface {
	// Lock acquires the lock, blocking (in real or virtual time) until it
	// is available.
	Lock(e Env)
	// Unlock releases the lock, which must be held by the calling thread.
	Unlock(e Env)
	// TryLock acquires the lock if it is immediately available and
	// reports whether it did. Used by the ptmalloc-style baseline's
	// arena-stealing path.
	TryLock(e Env) bool
}

// LockFactory creates locks bound to one environment. Allocators receive a
// factory at construction so all their internal locks live in the same world
// as the threads that will use them.
type LockFactory interface {
	// NewLock returns a new unlocked lock. The name is used for
	// contention statistics and debugging.
	NewLock(name string) Lock
}

// --- Real environment ---

// RealEnv is the production environment: charges and touches are no-ops.
type RealEnv struct {
	// ID is the thread identifier returned by ThreadID.
	ID int
}

// Charge implements Env as a no-op.
func (*RealEnv) Charge(CostKind, int64) {}

// Touch implements Env as a no-op.
func (*RealEnv) Touch(uint64, int, bool) {}

// ThreadID returns the configured thread identifier.
func (e *RealEnv) ThreadID() int { return e.ID }

// Simulated reports whether e charges costs: false for the real
// environment, whose Charge and Touch are no-ops. A per-block loop tests it
// once and makes its Touch calls only when it is true, so on a real env the
// loop runs without a call per block.
func Simulated(e Env) bool {
	_, real := e.(*RealEnv)
	return !real
}

// RealLockFactory creates sync.Mutex-backed locks.
type RealLockFactory struct{}

// NewLock returns a lock backed by a sync.Mutex.
func (RealLockFactory) NewLock(string) Lock { return &realLock{} }

type realLock struct{ mu sync.Mutex }

func (l *realLock) Lock(Env)   { l.mu.Lock() }
func (l *realLock) Unlock(Env) { l.mu.Unlock() }

func (l *realLock) TryLock(Env) bool { return l.mu.TryLock() }
