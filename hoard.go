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
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/allocators"
	"hoardgo/internal/core"
	"hoardgo/internal/debugalloc"
	"hoardgo/internal/env"
	"hoardgo/internal/metrics"
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

// Config configures an Allocator. Every policy runs the paper's fixed
// parameters, exactly as the benchmarks and figures build it: Hoard with
// S = 8 KiB, f = 1/4, K = 1, b = 1.2 and 2*Procs heaps, the others with
// 8 KiB superblocks and two ownership arenas per processor, arena stealing
// on. The zero value builds a Hoard allocator. Backend and
// ThreadCacheCapacity apply to the Hoard policy only.
type Config struct {
	// Policy selects the allocator architecture; empty means PolicyHoard.
	Policy Policy

	// Procs sizes per-processor structures (Hoard's heap count,
	// ownership's arena count). Zero means 8.
	Procs int

	// Backend selects the memory behind the Hoard policy's address space:
	// "sim" (the default — deterministic simulated memory) or "arena"
	// (mmap'd regions with real madvise decommit; Linux amd64/arm64 only).
	// Either way a superblock pointer resolves by address arithmetic on
	// one slot table. Empty consults the HOARDGO_BACKEND environment
	// variable, then defaults to sim. When the arena cannot be created the
	// allocator degrades to sim instead of failing; Stats.BackendFallbacks
	// and Allocator.BackendFallbackReason record that. Ignored by other
	// policies, which always use simulated memory.
	Backend string

	// Debug wraps the allocator with memory-debugging machinery: guard
	// canaries around every block (overflow/underflow panics), poisoning
	// of freed memory, and a free quarantine that catches use-after-free
	// writes. Expensive; for development. DebugQuarantine tunes the
	// quarantine length (0 = default, negative = disabled).
	Debug           bool
	DebugQuarantine int

	// ThreadCacheCapacity sizes the per-thread block caches ("magazines",
	// in the style of Hoard's successors — tcmalloc, jemalloc): the most
	// blocks cached per size class per thread. A fixed 32 KiB byte budget
	// caps the larger classes lower — clamp(32768/size, 2, capacity)
	// blocks, 8 of 4 KiB at the default — and a thread's batch of frees
	// bound for other heaps flushes at capacity blocks or 32 KiB: at most
	// about 0.58 MB cached per thread at the default (Describe prints the
	// bound). Malloc and free hit a magazine with no lock at all; refills
	// and flushes move half a class's cap under one heap lock. The Hoard
	// policy always runs them, owner-aware: a block another thread's heap
	// owns is never cached by the freeing thread but returned to its owner
	// in batches, so Hoard's false-sharing avoidance holds; zero selects
	// the default of 64. Nonzero values must be at least 2, and apply to
	// the Hoard policy only: New rejects smaller values, and any nonzero
	// value on another policy. Thread.Close returns a thread's magazines.
	ThreadCacheCapacity int

	// Metrics instruments every internal lock with acquisition, contention,
	// and wait/hold-time counters, exported through WriteMetrics. Off by
	// default: an uninstrumented allocator pays zero overhead (the wrappers
	// are never created); with it on, each lock operation adds two clock
	// reads and a few uncontended atomic adds. Occupancy sampling and Audit
	// work either way — this flag only controls lock counters.
	Metrics bool
}

// Allocator is a thread-safe explicit memory allocator.
type Allocator struct {
	impl alloc.Allocator
	// hoard is impl when it is the Hoard policy's core, with no debug
	// layer over it: its threads' operations are then direct calls.
	hoard *core.Hoard
	// closed is set by Close; every operation that touches memory checks
	// it first.
	closed  bool
	name    string // the architecture name Policy reports
	nextTID atomic.Int64

	// reg holds the lock-metrics registry when Config.Metrics was set; nil
	// otherwise (no instrumentation exists at all in that case).
	reg *metrics.Registry
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
	if cfg.ThreadCacheCapacity != 0 && cfg.ThreadCacheCapacity < core.MinCapacity {
		return nil, fmt.Errorf("hoard: ThreadCacheCapacity %d below the minimum of %d", cfg.ThreadCacheCapacity, core.MinCapacity)
	}
	a := &Allocator{reg: reg}
	if cfg.Policy == PolicyHoard || cfg.Policy == "" {
		// The paper's parameters, with the magazines that are part of the
		// Hoard policy's protocol, sized by ThreadCacheCapacity alone.
		capacity := cfg.ThreadCacheCapacity
		if capacity == 0 {
			capacity = core.DefaultCapacity
		}
		a.hoard = core.New(core.Config{Heaps: 2 * procs, Backend: cfg.Backend, Magazines: capacity}, lf)
		a.impl = a.hoard
	} else {
		if cfg.ThreadCacheCapacity != 0 {
			return nil, fmt.Errorf("hoard: ThreadCacheCapacity applies to the Hoard policy only, not %q", cfg.Policy)
		}
		var err error
		if a.impl, err = allocators.Make(string(cfg.Policy), procs, lf); err != nil {
			return nil, fmt.Errorf("hoard: unknown policy %q (have %v)", cfg.Policy, allocators.Names())
		}
	}
	a.name = a.impl.Name()
	if cfg.Debug {
		a.impl = debugalloc.New(a.impl, debugalloc.Config{Quarantine: cfg.DebugQuarantine})
		a.hoard = nil
		a.name += "+debug"
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
	// state is the Hoard core's state of the thread when the allocator's
	// hoard is set, and nil otherwise.
	state *core.ThreadState
}

// NewThread registers a worker and returns its handle. Safe for concurrent
// use.
func (a *Allocator) NewThread() *Thread {
	a.checkOpen("NewThread")
	id := int(a.nextTID.Add(1) - 1)
	t := &Thread{a: a, inner: a.impl.NewThread(&env.RealEnv{ID: id})}
	if a.hoard != nil {
		t.state = t.inner.State.(*core.ThreadState)
	}
	return t
}

// ID returns the thread's registration index.
func (t *Thread) ID() int { return t.inner.ID }

// Close retires the thread: blocks cached on its behalf return to the
// underlying heaps (thread-cache magazines are batch-freed,
// debug-quarantined frees complete) and the thread is deregistered. It is
// what a thread-exit hook does in a C allocator — a worker goroutine should
// Close its Thread before exiting, or its magazine blocks stay stranded:
// invisible to the emptiness invariant, never scavenged, counted by
// CachedBytes forever. The Hoard policy's footprint bound is the paper's
// O(U(t) + P·K·S) plus up to a per-thread bound (580,568 B at the default
// ThreadCacheCapacity) for every registered Thread, and a Thread dropped
// without Close stays registered, magazines and all. 1,000 Threads that
// each allocate and free one block of every 16-byte step from 16 to 2048 B
// end, dropped, with 249,544,000 B cached and 266,756,096 B reserved, and
// closed, with 401,408 B reserved. The handle remains usable afterwards
// (stray late operations bypass the caches), so Close is safe to call
// before the last cross-thread free of this thread's blocks has happened.
// For stacks with no per-thread caching Close is a no-op, and so it is once
// the Allocator is closed.
func (t *Thread) Close() {
	if !t.a.closed {
		alloc.FlushThread(t.a.impl, t.inner)
	}
}

// Malloc returns a block of at least size bytes. Malloc(0) returns a valid
// minimal block; a negative size panics, as it does on every call that
// takes a size. The block's contents are unspecified: it may hold what an
// earlier holder wrote, or zeros where the allocator warmed it. Calloc
// returns a zeroed block.
func (t *Thread) Malloc(size int) Ptr {
	t.a.checkOpen("Malloc")
	checkSize("Malloc", size)
	if t.state != nil {
		return t.state.Malloc(size)
	}
	return t.a.impl.Malloc(t.inner, size)
}

// Calloc returns a zeroed block of at least size bytes.
func (t *Thread) Calloc(size int) Ptr {
	t.a.checkOpen("Calloc")
	checkSize("Calloc", size)
	p := t.Malloc(size)
	clear(t.Bytes(p, size))
	return p
}

// Free releases a block. Freeing the nil Ptr is a no-op; foreign and
// interior pointers panic, as memory corruption in a real allocator is not
// recoverable, and so do double frees, except of small blocks on
// PolicyPrivate and PolicyThreshold: like the Cilk/STL and DYNIX allocators
// they stand for, those push a freed small block on a free list without
// checking its state. They panic on a pointer that names no whole block of
// a span, but a small double free, or a free of a block inside a span that
// was never handed out, goes onto the list and corrupts it.
func (t *Thread) Free(p Ptr) {
	t.a.checkOpen("Free")
	if t.state != nil {
		t.state.Free(p)
		return
	}
	t.a.impl.Free(t.inner, p)
}

// Realloc resizes a block, preserving min(old, new) bytes of content. A nil
// p behaves as Malloc.
func (t *Thread) Realloc(p Ptr, size int) Ptr {
	t.a.checkOpen("Realloc")
	checkSize("Realloc", size)
	if p.IsNil() {
		return t.Malloc(size)
	}
	old := t.UsableSize(p)
	if size <= old && size > old/2 {
		return p
	}
	np := t.Malloc(size)
	n := min(old, size)
	copy(t.Bytes(np, n), t.Bytes(p, n))
	t.Free(p)
	return np
}

// MallocAligned returns a block of at least size bytes whose address is a
// multiple of align (a power of two). Hoard, dlheap and every policy under
// Debug implement it themselves (Debug pads the block and puts its front
// guard just below the aligned address; dlheap takes its large-object
// path); the others serve align > 8 from their large-object path. Both
// paths are page-aligned: above the page size only Hoard and Debug serve
// the call, and the others panic naming the policy. An align that is not a
// power of two panics on every policy.
func (t *Thread) MallocAligned(size, align int) Ptr {
	t.a.checkOpen("MallocAligned")
	checkSize("MallocAligned", size)
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("hoard: MallocAligned align %d not a power of two", align))
	}
	if m, ok := t.a.impl.(interface {
		MallocAligned(t *alloc.Thread, size, align int) alloc.Ptr
	}); ok {
		return m.MallocAligned(t.inner, size, align)
	}
	if align > 4096 {
		panic(fmt.Sprintf("hoard: policy %q supports MallocAligned up to page alignment, got %d", t.a.name, align))
	}
	if align > 8 {
		size = max(size, 4097) // the large-object path is page-aligned
	}
	return t.Malloc(size)
}

// MallocBatch allocates up to n blocks of at least size bytes each into
// out[:n] and returns the number obtained, min(n, len(out)). It is a plain
// loop over Malloc. On the Hoard policy most of those calls are magazine
// pops, and a magazine refill already takes half a class's cap under one
// heap lock.
func (t *Thread) MallocBatch(size, n int, out []Ptr) int {
	t.a.checkOpen("MallocBatch")
	checkSize("MallocBatch", size)
	n = max(0, min(n, len(out)))
	for i := range out[:n] {
		out[i] = t.Malloc(size)
	}
	return n
}

// FreeBatch releases every block in ps (nil entries are skipped). It is a
// plain loop over Free; on the Hoard policy the magazines and the remote
// batch group the blocks by owner heap on their way back.
func (t *Thread) FreeBatch(ps []Ptr) {
	t.a.checkOpen("FreeBatch")
	for _, p := range ps {
		t.Free(p)
	}
}

// Bytes returns a writable view of n bytes of a live block. The view stays
// valid until the block is freed.
func (t *Thread) Bytes(p Ptr, n int) []byte {
	t.a.checkOpen("Bytes")
	checkSize("Bytes", n)
	if h := t.a.hoard; h != nil {
		return h.Bytes(p, n)
	}
	return t.a.impl.Bytes(p, n)
}

// UsableSize returns the usable capacity of a live block (at least the
// requested size, rounded up to its size class).
func (t *Thread) UsableSize(p Ptr) int {
	t.a.checkOpen("UsableSize")
	if h := t.a.hoard; h != nil {
		return h.UsableSize(p)
	}
	return t.a.impl.UsableSize(p)
}

// Stats is a snapshot of allocator activity. Allocator.Stats takes an exact
// one, which must not run concurrently with allocation; Allocator.SampleStats
// takes one under load, whose operation counts may trail.
type Stats struct {
	// Mallocs and Frees count completed operations.
	Mallocs, Frees int64
	// LiveBytes is the usable bytes currently allocated. PeakLiveBytes is
	// its high-water mark, exact for the baseline policies. Under the Hoard
	// policy's thread caches it is an upper bound: the exact high-water mark
	// of the bytes Hoard has handed to the caches and the application, live
	// plus cached, which exceeds the true peak by at most the bytes cached
	// at that moment. Per thread that is at most cap+1 blocks of each size
	// class, plus 32 KiB of remote batch and one block (DESIGN.md §11):
	// about 0.6 MB at the default capacity.
	LiveBytes, PeakLiveBytes int64
	// FootprintBytes is the physical memory currently held from the
	// (simulated) OS — committed bytes; PeakFootprintBytes its high-water
	// mark. Footprint over live is the allocator's fragmentation.
	FootprintBytes, PeakFootprintBytes int64
	// ReservedBytes is the address space currently reserved, decommitted
	// pages included; PeakReservedBytes its high-water mark. Reserved
	// minus footprint is exactly DecommittedBytes.
	ReservedBytes, PeakReservedBytes int64
	// DecommittedBytes is the bytes currently decommitted by
	// ReleaseMemory: reserved but returned to the OS, repopulated on
	// demand.
	DecommittedBytes int64
	// ScavengeOps counts ReleaseMemory calls that released at least one
	// byte; ScavengedBytes the bytes they released.
	ScavengeOps, ScavengedBytes int64
	// SuperblockMoves counts superblocks Hoard evicted from a per-processor
	// heap to the global heap to restore the emptiness invariant.
	SuperblockMoves int64
	// GlobalHeapHits counts superblocks a per-processor heap took back from
	// the global heap: the other direction of the same round trip.
	GlobalHeapHits int64
	// RemoteFrees counts frees that crossed heaps.
	RemoteFrees int64
	// BatchRefills and BatchFlushes count the Hoard policy's magazine
	// transfers: refills, and flushes of magazines and remote batches, each
	// served under one heap-lock acquisition (per owner group, for
	// flushes). Zero on the other policies.
	BatchRefills, BatchFlushes int64
	// BatchedBlocks counts the blocks those transfers moved, in both
	// directions.
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

// Stats returns a snapshot of the allocator's counters. Mallocs, Frees and
// LiveBytes are exact once every counted operation happens-before the call,
// threads still open included: a goroutine that joins its workers (a
// sync.WaitGroup, a channel receive) may call it without closing them.
// Under the Hoard policy each thread counts its magazine hits in memory only
// it writes, so a Stats call concurrent with allocation is a data race,
// which the race detector reports. Callers under load use SampleStats,
// WriteMetrics or WriteMetricsJSON.
func (a *Allocator) Stats() Stats { return a.stats(a.impl.Stats()) }

// SampleStats is the view of Stats for callers running under load: safe to
// call while other threads allocate. It reads only the counts threads have
// published. Mallocs and Frees never decrease between calls. Under the Hoard
// policy each open thread publishes its magazine hits once 32 have gathered,
// whatever their size classes and directions, so its counts trail its true
// counts by at most 31 hits, mallocs and frees together, and LiveBytes is
// off by at most 31 × 4096 B = 126,976 B per open thread either way. A
// thread also publishes at every magazine refill and flush, so the lag is
// usually smaller. Once every thread has closed it equals Stats. On the
// other policies it is Stats.
func (a *Allocator) SampleStats() Stats { return a.stats(alloc.SampleStats(a.impl)) }

// stats completes a snapshot of the allocator stack's counters with the
// address space's.
func (a *Allocator) stats(st alloc.Stats) Stats {
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
		GlobalHeapHits:     st.GlobalHeapHits,
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
// under the Hoard policy, and 0 on the other policies.
// It requires quiescence for an exact answer. A drained workload whose
// workers all called Thread.Close reports 0 — the lifecycle regression
// tests assert exactly that.
func (a *Allocator) CachedBytes() int64 {
	if h := a.unwrap(); h != nil {
		return h.CachedBytes()
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

// ReleaseMemory returns every empty superblock parked on the global heap to
// the (simulated) OS — the malloc_trim(3) of this allocator. It blocks on
// the global heap's lock and returns the bytes released. Non-Hoard policies
// release nothing. A caller that wants periodic trimming calls it from a
// time.Ticker (see examples/metricsserver).
//
// The memory stays reserved: addresses remain valid, and the superblocks are
// recommitted transparently when allocation demand returns.
func (a *Allocator) ReleaseMemory() int64 {
	a.checkOpen("ReleaseMemory")
	h := a.unwrap()
	if h == nil {
		return 0
	}
	return h.ReleaseMemory(&env.RealEnv{ID: -1})
}

// Close releases the memory substrate: for the arena backend this unmaps its
// regions; the simulated memory has nothing to return.
// The allocator must be quiescent when Close is called. Afterwards NewThread,
// ReleaseMemory, CheckIntegrity and every Thread operation that touches
// memory (Malloc, Free, their batch forms, Bytes, UsableSize and the calls
// built on them) panic with a message naming the call; Stats and Close
// itself keep working.
// Close is the only way an arena's address space is returned to the OS — Go
// finalizers cannot reclaim it.
func (a *Allocator) Close() error {
	a.closed = true
	return a.impl.Space().Close()
}

// checkOpen panics, naming op, when the allocator has been closed, instead
// of letting op fault on unmapped memory later. Every call that touches
// memory checks first, so the panic names the call that was made and an
// empty batch panics too.
func (a *Allocator) checkOpen(op string) {
	if a.closed {
		panic("hoard: " + op + " after Close")
	}
}

// checkSize panics, naming op, on a negative size: the same message on
// every policy, with and without Debug, before any layer below sees it.
func checkSize(op string, size int) {
	if size < 0 {
		panic(fmt.Sprintf("hoard: %s of negative size %d", op, size))
	}
}

// CheckIntegrity exhaustively validates the allocator's internal
// invariants. It requires quiescence (no concurrent operations) and is
// intended for tests.
func (a *Allocator) CheckIntegrity() error {
	a.checkOpen("CheckIntegrity")
	return a.impl.CheckIntegrity()
}

// Describe writes a human-readable snapshot of the allocator's state (in
// the spirit of malloc_stats). Its first line is the Stats books of every
// policy: mallocs, frees, live bytes and PeakLiveBytes, footprint and its
// peak. The Hoard policy adds its configuration, transfer and superblock
// counters and a per-heap breakdown, and a last line on the magazines: the
// size classes whose cap the 32 KiB byte budget lowers below
// ThreadCacheCapacity, the per-thread bound in bytes, and the bytes the
// magazines hold.
// Its books come from Stats, with the same contract: exact once every
// counted operation happens-before the call, and a data race, which -race
// reports, when called concurrently with allocation. Under load, use
// WriteMetrics.
func (a *Allocator) Describe(w io.Writer) {
	st := a.Stats()
	fmt.Fprintf(w, "%s: %d mallocs, %d frees, %d B live (peak %d), %d B footprint (peak %d)\n",
		a.name, st.Mallocs, st.Frees, st.LiveBytes, st.PeakLiveBytes, st.FootprintBytes, st.PeakFootprintBytes)
	if h := a.unwrap(); h != nil {
		h.Describe(w, &env.RealEnv{})
	}
}
