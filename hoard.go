// Package hoard is a Go reproduction of the memory allocator from Berger,
// McKinley, Blumofe & Wilson, "Hoard: A Scalable Memory Allocator for
// Multithreaded Applications" (ASPLOS 2000), together with the baseline
// allocators the paper compares against and the experiment harness that
// regenerates its evaluation.
//
// Because the Go runtime owns real allocation, this library manages an
// explicit, simulated address space: Malloc returns an opaque Ptr whose
// bytes are accessed through the allocator (Bytes). The allocator
// algorithms — superblocks, per-processor heaps, the emptiness invariant —
// are implemented in full; see DESIGN.md for the architecture and
// EXPERIMENTS.md for the reproduced results.
//
// # Quick start
//
//	a, _ := hoard.New(hoard.Config{})
//	t := a.NewThread()          // one per worker goroutine
//	p := t.Malloc(100)
//	copy(t.Bytes(p, 100), data)
//	t.Free(p)
//
// Threads are the unit of concurrency: each worker goroutine registers once
// with NewThread and uses its Thread for every operation. Any thread may
// free memory allocated by any other — Hoard's whole point is making that
// correct, fast, and memory-bounded.
package hoard

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/allocators"
	"hoardgo/internal/concurrent"
	"hoardgo/internal/core"
	"hoardgo/internal/debugalloc"
	"hoardgo/internal/dlheap"
	"hoardgo/internal/env"
	"hoardgo/internal/metrics"
	"hoardgo/internal/ownership"
	"hoardgo/internal/private"
	"hoardgo/internal/scavenge"
	"hoardgo/internal/serial"
	"hoardgo/internal/tcache"
	"hoardgo/internal/threshold"
)

// Ptr is an address in the allocator's simulated address space. The zero
// Ptr is nil.
type Ptr = alloc.Ptr

// Policy selects which allocator architecture a Config builds. The
// non-Hoard policies implement the taxonomy of the paper's §2 and exist as
// experimental baselines.
type Policy string

// Available policies.
const (
	// PolicyHoard is the paper's allocator (the default).
	PolicyHoard Policy = "hoard"
	// PolicySerial is a single-lock, single-heap allocator ("Solaris
	// malloc"): not scalable, actively induces false sharing.
	PolicySerial Policy = "serial"
	// PolicyConcurrent is a single heap with per-size-class locks: more
	// scalable than serial, but same-class allocations still serialize
	// and false sharing remains.
	PolicyConcurrent Policy = "concurrent"
	// PolicyDLHeap is a Doug Lea-style serial allocator: boundary-tag
	// coalescing chunks in geometric bins under one lock (the dlmalloc
	// design). Classical low fragmentation, serial scalability.
	PolicyDLHeap Policy = "dlheap"
	// PolicyPrivate is pure private heaps (Cilk/STL): scalable but with
	// unbounded blowup under producer-consumer patterns.
	PolicyPrivate Policy = "private"
	// PolicyOwnership is private heaps with ownership (Ptmalloc):
	// bounded but O(P) blowup.
	PolicyOwnership Policy = "ownership"
	// PolicyThreshold is private heaps with thresholds (DYNIX): bounded
	// blowup, object-granularity migration overhead and false sharing.
	PolicyThreshold Policy = "threshold"
)

// Config configures an Allocator. The zero value builds a Hoard allocator
// with the paper's parameters.
type Config struct {
	// Policy selects the allocator architecture; empty means PolicyHoard.
	Policy Policy

	// Procs sizes per-processor structures (Hoard's heap count,
	// ownership's arena count). Zero means 8.
	Procs int

	// Hoard tunes the Hoard policy in detail; ignored by other policies.
	// Zero fields select the paper's parameters (S=8 KiB, f=1/4, K=1,
	// b=1.2, 2*Procs heaps).
	Hoard core.Config

	// Backend selects the Hoard policy's memory substrate: "sim" (the
	// default — a deterministic simulated address space) or "arena" (one
	// large mmap reservation with address-arithmetic span resolution and
	// real madvise decommit; Linux amd64/arm64 only). Empty consults the
	// HOARDGO_BACKEND environment variable, then defaults to sim. When the
	// arena cannot be created the allocator degrades to sim instead of
	// failing; Stats.BackendFallbacks and Allocator.BackendFallbackReason
	// record that. Shorthand for Hoard.Backend; ignored by other policies,
	// which always use the simulated space.
	Backend string

	// OwnershipArenas and OwnershipSteal tune the ownership policy.
	OwnershipArenas int
	OwnershipSteal  bool

	// ThresholdWatermark tunes the threshold policy's batch size.
	ThresholdWatermark int

	// Debug wraps the allocator with memory-debugging machinery: guard
	// canaries around every block (overflow/underflow panics), poisoning
	// of freed memory, and a free quarantine that catches use-after-free
	// writes. Expensive; for development. DebugQuarantine tunes the
	// quarantine length (0 = default, negative = disabled).
	Debug           bool
	DebugQuarantine int

	// ThreadCacheCapacity sizes the per-thread block caches ("magazines",
	// in the style of Hoard's successors — tcmalloc, jemalloc): the blocks
	// cached per size class per thread. Malloc and free hit a magazine
	// with no lock at all; refills and flushes move half a magazine under
	// one heap lock. The Hoard policy always runs them, owner-aware: a
	// block another thread's heap owns is never cached by the freeing
	// thread but returned to its owner in batches, so Hoard's
	// false-sharing avoidance holds; zero selects the default of 64. The
	// other policies run without magazines unless this is set, and then
	// re-issue a freed block to the freeing thread (see the "tcache"
	// experiment). Nonzero values must be at least 2; New rejects smaller
	// values. Thread.Close returns a thread's magazines.
	ThreadCacheCapacity int

	// Metrics instruments every internal lock with acquisition, contention,
	// and wait/hold-time counters, exported through WriteMetrics. Off by
	// default: an uninstrumented allocator pays zero overhead (the wrappers
	// are never created); with it on, each lock operation adds two clock
	// reads and a few uncontended atomic adds. Occupancy sampling and the
	// auditor work either way — this flag only controls lock counters.
	Metrics bool

	// Scavenge configures the background scavenger, which returns the pages
	// of long-empty superblocks parked on the global heap to the (simulated)
	// OS. Hoard policy only; see ScavengeConfig. Disabled by default.
	Scavenge ScavengeConfig
}

// Allocator is a thread-safe explicit memory allocator.
type Allocator struct {
	impl    alloc.Allocator
	name    string // the architecture name Policy reports
	nextTID atomic.Int64

	// reg holds the lock-metrics registry when Config.Metrics was set; nil
	// otherwise (no instrumentation exists at all in that case).
	reg *metrics.Registry

	// auditorMu guards the background auditor handle (StartAuditor /
	// StopAuditor).
	auditorMu sync.Mutex
	auditor   *metrics.Auditor

	// scavMu guards the background scavenger handle (StartScavenger /
	// StopScavenger); scavCfg is the internal form of Config.Scavenge.
	scavMu  sync.Mutex
	scav    *scavenge.Scavenger
	scavCfg scavenge.Config
}

// New builds an allocator from cfg.
func New(cfg Config) (*Allocator, error) {
	procs := cfg.Procs
	if procs == 0 {
		procs = 8
	}
	if procs < 1 {
		return nil, fmt.Errorf("hoard: Procs %d out of range", procs)
	}
	var lf env.LockFactory = env.RealLockFactory{}
	var reg *metrics.Registry
	if cfg.Metrics {
		reg = metrics.NewRegistry()
		lf = reg.WrapFactory(lf)
	}
	switch cfg.Backend {
	case "", "sim", "arena":
	default:
		return nil, fmt.Errorf("hoard: unknown backend %q (want \"sim\" or \"arena\")", cfg.Backend)
	}
	// Every policy sizes its spans by Hoard.SuperblockSize; check it here so
	// a bad size is an error from New, not a panic at the first Malloc.
	if err := (core.Config{SuperblockSize: cfg.Hoard.SuperblockSize}).Validate(); err != nil {
		return nil, err
	}
	var impl alloc.Allocator
	switch cfg.Policy {
	case PolicyHoard, "":
		hc := cfg.Hoard
		if hc.Heaps == 0 {
			hc.Heaps = 2 * procs
		}
		if hc.Backend == "" {
			hc.Backend = cfg.Backend
		}
		if err := hc.Validate(); err != nil {
			return nil, err
		}
		impl = core.New(hc, lf)
	case PolicySerial:
		impl = serial.New(cfg.Hoard.SuperblockSize, lf)
	case PolicyConcurrent:
		impl = concurrent.New(cfg.Hoard.SuperblockSize, lf)
	case PolicyDLHeap:
		impl = dlheap.New(lf)
	case PolicyPrivate:
		impl = private.New(cfg.Hoard.SuperblockSize, lf)
	case PolicyOwnership:
		arenas := cfg.OwnershipArenas
		if arenas == 0 {
			arenas = 2 * procs
		}
		impl = ownership.New(ownership.Config{
			SuperblockSize: cfg.Hoard.SuperblockSize,
			Arenas:         arenas,
			Steal:          cfg.OwnershipSteal,
		}, lf)
	case PolicyThreshold:
		impl = threshold.New(threshold.Config{
			SuperblockSize: cfg.Hoard.SuperblockSize,
			Watermark:      cfg.ThresholdWatermark,
		}, lf)
	default:
		return nil, fmt.Errorf("hoard: unknown policy %q (have %v)", cfg.Policy, allocators.Names())
	}
	if cfg.ThreadCacheCapacity != 0 && cfg.ThreadCacheCapacity < tcache.MinCapacity {
		return nil, fmt.Errorf("hoard: ThreadCacheCapacity %d below the minimum of %d", cfg.ThreadCacheCapacity, tcache.MinCapacity)
	}
	// The Hoard policy's magazines are part of its protocol, so they keep
	// its name; magazines over another policy are a named layer.
	name := impl.Name()
	if _, hoardPolicy := impl.(*core.Hoard); hoardPolicy || cfg.ThreadCacheCapacity != 0 {
		impl = tcache.New(impl, tcache.Config{Capacity: cfg.ThreadCacheCapacity})
		if !hoardPolicy {
			name = impl.Name()
		}
	}
	if cfg.Debug {
		impl = debugalloc.New(impl, debugalloc.Config{Quarantine: cfg.DebugQuarantine})
		name += "+debug"
	}
	scavCfg := cfg.Scavenge.internal()
	if err := scavCfg.Validate(); err != nil {
		return nil, fmt.Errorf("hoard: %w", err)
	}
	a := &Allocator{impl: impl, name: name, reg: reg, scavCfg: scavCfg}
	if cfg.Scavenge.Enabled {
		if err := a.StartScavenger(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Allocator {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Policy returns the allocator's architecture name.
func (a *Allocator) Policy() Policy { return Policy(a.name) }

// Thread is a worker's allocation handle. Create one per goroutine with
// NewThread; a Thread must not be used from two goroutines at once (but any
// Thread may free memory allocated through any other).
type Thread struct {
	a     *Allocator
	inner *alloc.Thread
}

// NewThread registers a worker and returns its handle. Safe for concurrent
// use.
func (a *Allocator) NewThread() *Thread {
	id := int(a.nextTID.Add(1) - 1)
	return &Thread{a: a, inner: a.impl.NewThread(&env.RealEnv{ID: id})}
}

// ID returns the thread's registration index.
func (t *Thread) ID() int { return t.inner.ID }

// Close retires the thread: blocks cached on its behalf by layered
// allocators return to the underlying heaps (thread-cache magazines are
// batch-freed, debug-quarantined frees complete) and the thread is
// deregistered. It is what a thread-exit hook does in a C allocator — a
// worker goroutine should Close its Thread before exiting, or its magazine
// blocks stay stranded: invisible to the emptiness invariant, never
// scavenged, counted by CachedBytes forever. The handle remains usable
// afterwards (stray late operations bypass the caches), so Close is safe to
// call before the last cross-thread free of this thread's blocks has
// happened. For stacks with no per-thread caching layer Close is a no-op.
func (t *Thread) Close() { alloc.FlushThread(t.a.impl, t.inner) }

// Malloc returns a block of at least size bytes. Malloc(0) returns a valid
// minimal block.
func (t *Thread) Malloc(size int) Ptr { return t.a.impl.Malloc(t.inner, size) }

// Calloc returns a zeroed block of at least size bytes.
func (t *Thread) Calloc(size int) Ptr {
	p := t.Malloc(size)
	clear(t.a.impl.Bytes(p, size))
	return p
}

// Free releases a block. Freeing the nil Ptr is a no-op; double frees and
// foreign pointers panic, as memory corruption in a real allocator is not
// recoverable.
func (t *Thread) Free(p Ptr) { t.a.impl.Free(t.inner, p) }

// Realloc resizes a block, preserving min(old, new) bytes of content. A nil
// p behaves as Malloc.
func (t *Thread) Realloc(p Ptr, size int) Ptr {
	if p.IsNil() {
		return t.Malloc(size)
	}
	old := t.a.impl.UsableSize(p)
	if size <= old && size > old/2 {
		return p
	}
	np := t.Malloc(size)
	n := min(old, size)
	copy(t.a.impl.Bytes(np, n), t.a.impl.Bytes(p, n))
	t.Free(p)
	return np
}

// MallocAligned returns a block of at least size bytes whose address is a
// multiple of align (a power of two). Only the Hoard policy implements
// stronger-than-8-byte alignment natively; other policies, and Hoard under
// Debug, fall back to the page-aligned large-object path for align > 8.
func (t *Thread) MallocAligned(size, align int) Ptr {
	if tc, ok := t.a.impl.(*tcache.Allocator); ok {
		if _, hoardPolicy := tc.Inner().(*core.Hoard); hoardPolicy {
			return tc.MallocAligned(t.inner, size, align)
		}
	}
	if align <= 8 {
		return t.Malloc(size)
	}
	if align > 4096 {
		panic(fmt.Sprintf("hoard: policy %q supports MallocAligned up to page alignment, got %d", t.a.name, align))
	}
	// The large-object path of every policy is page-aligned.
	if size < 4097 {
		size = 4097
	}
	return t.Malloc(size)
}

// MallocBatch allocates up to n blocks of at least size bytes each into
// out[:n] and returns the number obtained. Policies with a native batch path
// (Hoard, serial) serve the whole batch under a single heap-lock
// acquisition; others fall back to per-block Mallocs. The tcache layer uses
// the same machinery for its magazine refills.
func (t *Thread) MallocBatch(size, n int, out []Ptr) int {
	return alloc.MallocBatch(t.a.impl, t.inner, size, n, out)
}

// FreeBatch releases every block in ps (nil entries are skipped). Policies
// with a native batch path group the pointers by owner and take each owner's
// lock once per group; others fall back to per-block Frees.
func (t *Thread) FreeBatch(ps []Ptr) {
	alloc.FreeBatch(t.a.impl, t.inner, ps)
}

// Bytes returns a writable view of n bytes of a live block. The view stays
// valid until the block is freed.
func (t *Thread) Bytes(p Ptr, n int) []byte { return t.a.impl.Bytes(p, n) }

// UsableSize returns the usable capacity of a live block (at least the
// requested size, rounded up to its size class).
func (t *Thread) UsableSize(p Ptr) int { return t.a.impl.UsableSize(p) }

// Stats is a snapshot of allocator activity.
type Stats struct {
	// Mallocs and Frees count completed operations.
	Mallocs, Frees int64
	// LiveBytes is the usable bytes currently allocated; PeakLiveBytes
	// its high-water mark.
	LiveBytes, PeakLiveBytes int64
	// FootprintBytes is the physical memory currently held from the
	// (simulated) OS — committed bytes; PeakFootprintBytes its high-water
	// mark. Footprint over live is the allocator's fragmentation.
	FootprintBytes, PeakFootprintBytes int64
	// ReservedBytes is the address space currently reserved, decommitted
	// pages included; PeakReservedBytes its high-water mark. Reserved
	// minus footprint is exactly DecommittedBytes.
	ReservedBytes, PeakReservedBytes int64
	// DecommittedBytes is the bytes currently decommitted by the
	// scavenger: reserved but returned to the OS, repopulated on demand.
	DecommittedBytes int64
	// ScavengeOps counts scavenge passes that released at least one byte
	// (background and forced); ScavengedBytes the bytes they released.
	ScavengeOps, ScavengedBytes int64
	// SuperblockMoves counts Hoard's transfers to/from the global heap.
	SuperblockMoves int64
	// RemoteFrees counts frees that crossed heaps.
	RemoteFrees int64
	// BatchRefills and BatchFlushes count native MallocBatch and FreeBatch
	// calls — each a magazine transfer served under one heap-lock
	// acquisition (per owner group, for flushes). Zero when the policy has
	// no native batch path.
	BatchRefills, BatchFlushes int64
	// BatchedBlocks counts the blocks moved through those native batch
	// calls, in both directions.
	BatchedBlocks int64
	// LockFreeMallocs and LockFreeFrees count operations a thread cache
	// served with no lock at all: mallocs popped from a magazine and frees
	// pushed onto a magazine or a remote batch, without a refill or flush
	// in the same call.
	LockFreeMallocs, LockFreeFrees int64
	// FastPathRetries is always 0: no allocator path retries a
	// compare-and-swap. It stays because the benchmark (perfbench) reads
	// it.
	FastPathRetries int64
	// BackendFallbacks is 1 when a requested arena backend could not be
	// created and the allocator degraded to the simulated space; see
	// BackendFallbackReason for the cause.
	BackendFallbacks int64
}

// Stats returns a snapshot of the allocator's counters.
func (a *Allocator) Stats() Stats {
	st := a.impl.Stats()
	sp := a.impl.Space().Stats()
	return Stats{
		Mallocs:            st.Mallocs,
		Frees:              st.Frees,
		LiveBytes:          st.LiveBytes,
		PeakLiveBytes:      st.PeakLiveBytes,
		FootprintBytes:     sp.Committed,
		PeakFootprintBytes: sp.PeakCommitted,
		ReservedBytes:      sp.Reserved,
		PeakReservedBytes:  sp.PeakReserved,
		DecommittedBytes:   sp.DecommittedBytes,
		ScavengeOps:        st.ScavengePasses,
		ScavengedBytes:     st.ScavengedBytes,
		SuperblockMoves:    st.SuperblockMoves,
		RemoteFrees:        st.RemoteFrees,
		BatchRefills:       st.BatchRefills,
		BatchFlushes:       st.BatchFlushes,
		BatchedBlocks:      st.BatchedBlocks,
		LockFreeMallocs:    st.LockFreeMallocs,
		LockFreeFrees:      st.LockFreeFrees,
		BackendFallbacks:   st.BackendFallbacks,
	}
}

// CachedBytes reports the bytes currently stranded in per-thread magazines
// when the allocator was built with ThreadCacheCapacity, and 0 otherwise.
// It requires quiescence for an exact answer. A drained workload whose
// workers all called Thread.Close reports 0 — the lifecycle regression
// tests and the load engine assert exactly that.
func (a *Allocator) CachedBytes() int64 {
	if tc := a.tcacheLayer(); tc != nil {
		return tc.CachedBytes()
	}
	return 0
}

// MagazineBytes is the under-load view of the same gauge: a sum of
// magazine-fill counters published at transfer boundaries, safe to read
// while worker threads allocate (CachedBytes is exact but requires
// quiescence). It lags true fill by at most half a magazine per size class
// per thread. Samplers and metrics scrapes use this form.
func (a *Allocator) MagazineBytes() int64 {
	if tc := a.tcacheLayer(); tc != nil {
		return tc.MagazineBytes()
	}
	return 0
}

// Backend returns the name of the memory substrate in use: "sim" or
// "arena". Non-Hoard policies always report "sim".
func (a *Allocator) Backend() string { return a.impl.Space().Name() }

// BackendFallbackReason reports why a requested arena backend degraded to
// the simulated space, or "" when no fallback happened. Only the Hoard
// policy can fall back.
func (a *Allocator) BackendFallbackReason() string {
	if h := a.unwrap(); h != nil {
		return h.BackendFallbackReason()
	}
	return ""
}

// Close stops the background scavenger and auditor (if running) and
// releases the memory substrate: for the arena backend this unmaps its
// virtual reservation, for the simulated backend it is a no-op.
// The allocator must be quiescent when Close is called. Afterwards NewThread
// and every Thread operation that touches memory (Malloc, Free, their batch
// forms, Bytes, UsableSize and the calls built on them) panic with a message
// naming the call; Stats and Close itself keep working.
// Close is the only way an arena's address space is returned to the OS — Go
// finalizers cannot reclaim it.
func (a *Allocator) Close() error {
	a.StopScavenger()
	a.StopAuditor()
	err := a.impl.Space().Close()
	if _, closed := a.impl.(closedAllocator); !closed {
		a.impl = closedAllocator{a.impl}
	}
	return err
}

// closedAllocator stands in for a closed allocator's stack: every operation
// that would touch the released substrate panics by name, at the offending
// call, instead of faulting on unmapped memory later. Counters, the
// substrate handle (so Close stays idempotent) and CheckIntegrity still
// reach the retired stack.
type closedAllocator struct{ alloc.Allocator }

func (closedAllocator) NewThread(env.Env) *alloc.Thread {
	panic("hoard: NewThread after Close")
}

func (closedAllocator) Malloc(*alloc.Thread, int) Ptr { panic("hoard: Malloc after Close") }

func (closedAllocator) Free(*alloc.Thread, Ptr) { panic("hoard: Free after Close") }

func (closedAllocator) MallocBatch(*alloc.Thread, int, int, []Ptr) int {
	panic("hoard: MallocBatch after Close")
}

func (closedAllocator) FreeBatch(*alloc.Thread, []Ptr) { panic("hoard: FreeBatch after Close") }

func (closedAllocator) UsableSize(Ptr) int { panic("hoard: UsableSize after Close") }

func (closedAllocator) Bytes(Ptr, int) []byte { panic("hoard: Bytes after Close") }

// CheckIntegrity exhaustively validates the allocator's internal
// invariants. It requires quiescence (no concurrent operations) and is
// intended for tests.
func (a *Allocator) CheckIntegrity() error { return a.impl.CheckIntegrity() }

// Describe writes a human-readable snapshot of the allocator's state (in
// the spirit of malloc_stats). Only the Hoard policy provides a detailed
// per-heap breakdown; other policies print their counters.
func (a *Allocator) Describe(w io.Writer) {
	if h := a.unwrap(); h != nil {
		h.Describe(w, &env.RealEnv{})
		return
	}
	st := a.Stats()
	fmt.Fprintf(w, "%s: %d mallocs, %d frees, %d B live, %d B footprint (peak %d)\n",
		a.name, st.Mallocs, st.Frees, st.LiveBytes, st.FootprintBytes, st.PeakFootprintBytes)
}
