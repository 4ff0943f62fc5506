// Package alloc defines the types shared by every allocator in this
// reproduction: the simulated pointer type, per-thread handles, the common
// Allocator interface, and usage accounting.
//
// Seven allocators implement Allocator, mirroring the paper's full taxonomy
// (§2 of DESIGN.md) plus a dlmalloc-style heap, and one layer wraps them:
//
//   - internal/core:       Hoard (the paper's contribution), with optional
//     per-thread magazines
//   - internal/lockedheap: three allocators over one set of locked heaps:
//     serial (one heap, one lock; "Solaris malloc"-like), concurrent (a
//     heap and lock per size class; Iyengar-like) and ownership (private
//     heaps with ownership; Ptmalloc/MTmalloc-like)
//   - internal/dlheap:     boundary-tag coalescing heap under one lock (dlmalloc-like)
//   - internal/privateheap: two allocators over per-thread free lists that
//     take every free: private (pure private heaps; Cilk/STL-like) and
//     threshold (private heaps with thresholds; DYNIX-like)
//   - internal/debugalloc: canaries, poisoning and a free quarantine, over any
//     of the above
package alloc

import (
	"sync/atomic"

	"hoardgo/internal/env"
	"hoardgo/internal/vm"
)

// Ptr is an address in the simulated address space. The zero value is the
// allocator's nil.
type Ptr uint64

// IsNil reports whether p is the null pointer.
func (p Ptr) IsNil() bool { return p == 0 }

// Thread is a per-thread allocation handle. Go has no thread-local storage
// visible to libraries, so callers register each worker with the allocator
// (NewThread) and pass the returned Thread to every operation, the way
// arena-style C allocators take an explicit arena argument. A Thread must
// not be used concurrently from multiple goroutines.
type Thread struct {
	// ID is the thread's stable identifier (from its environment).
	ID int
	// Env is the thread's execution environment.
	Env env.Env
	// State is owned by the allocator that created this Thread and holds
	// its per-thread structures (heap index, private heap, arena, ...).
	State any
}

// Allocator is the interface every allocator and layer implements.
type Allocator interface {
	// Name returns a short identifier ("hoard", "serial", ...) used in
	// benchmark output.
	Name() string

	// NewThread registers a worker and returns its allocation handle.
	// Safe for concurrent use.
	NewThread(e env.Env) *Thread

	// Malloc returns a block of at least size bytes, or the nil Ptr only
	// if size exceeds the allocator's maximum (none of the allocators
	// here impose one below the address-space size). Malloc(0) returns a
	// valid minimal block, like C malloc may.
	Malloc(t *Thread, size int) Ptr

	// Free releases a block previously returned by Malloc on the same
	// allocator. Freeing from a different thread than the allocating one
	// is allowed (that is the whole point of the paper). Freeing nil is
	// a no-op; foreign pointers panic, and so do interior pointers and
	// double frees on every allocator except private and threshold. Those
	// two push a freed small block on a free list without checking its
	// state, as Cilk/STL and DYNIX do: they panic only on a pointer that
	// names no whole block of a span, and miss small double frees and
	// frees of blocks inside a span that were never handed out.
	Free(t *Thread, p Ptr)

	// UsableSize returns the usable byte count of a live block.
	UsableSize(p Ptr) int

	// Bytes returns a writable view of n bytes of the block at p. It
	// panics if n exceeds the block's usable size.
	Bytes(p Ptr, n int) []byte

	// Stats returns a snapshot of the allocator's counters.
	Stats() Stats

	// Space exposes the simulated OS address space backing this
	// allocator, for committed-memory measurements.
	Space() vm.Backend

	// CheckIntegrity exhaustively validates internal invariants (free
	// list integrity, usage accounting, the emptiness invariant for
	// Hoard). It requires the allocator to be quiescent and is meant for
	// tests; it returns a descriptive error on the first violation.
	CheckIntegrity() error
}

// ThreadFlusher is optionally implemented by layered allocators that strand
// per-thread state (Hoard's magazines, the debug quarantine). FlushThread
// returns every block the layer holds on t's behalf to the inner allocator
// and deregisters the thread — the thread-exit hook of a C allocator. The
// handle must remain usable afterwards (late stray operations bypass the
// caches); a flushed thread simply stops stranding memory. The package-level
// FlushThread helper dispatches to the implementation when present.
type ThreadFlusher interface {
	FlushThread(t *Thread)
}

// FlushThread flushes t's layer-held state when a implements ThreadFlusher
// and is a no-op otherwise, so callers can retire threads against any
// allocator stack.
func FlushThread(a Allocator, t *Thread) {
	if f, ok := a.(ThreadFlusher); ok {
		f.FlushThread(t)
	}
}

// StatsSampler is implemented by layers whose Stats is exact but must not
// run concurrently with the operations it counts (Hoard's magazines, whose
// threads keep plain per-thread counts). SampleStats is the view for callers
// under load: safe to call at any time, Mallocs and Frees never decrease
// between calls, and they trail the exact counts by a bounded amount. The
// package-level SampleStats helper dispatches to it when present.
type StatsSampler interface {
	SampleStats() Stats
}

// SampleStats returns a's under-load view of its counters: its SampleStats
// when a implements StatsSampler, and Stats otherwise, which every other
// allocator keeps in atomics that are safe to read at any time.
func SampleStats(a Allocator) Stats {
	if s, ok := a.(StatsSampler); ok {
		return s.SampleStats()
	}
	return a.Stats()
}

// Stats is a snapshot of allocator activity. Fields that do not apply to a
// given allocator are zero.
type Stats struct {
	// Mallocs and Frees count completed operations.
	Mallocs, Frees int64
	// LiveBytes is the usable (class-rounded) bytes currently allocated.
	LiveBytes int64
	// PeakLiveBytes is the high-water mark of LiveBytes, exact wherever one
	// Accounting keeps the books: every baseline and the bare core.Hoard.
	// Hoard with its magazines, which the public Hoard policy always runs,
	// reports the core's mark of the bytes it handed out, application live
	// plus cached. That is at least the true peak, and exceeds it by at
	// most the bytes cached at the peak, itself at most the per-thread
	// magazine bound (DESIGN.md §11) per thread.
	PeakLiveBytes int64
	// LargeMallocs counts allocations that took the large-object path.
	LargeMallocs int64
	// SuperblockMoves counts superblocks evicted from a per-processor heap
	// to the global heap to restore the emptiness invariant (Hoard only).
	// The opposite direction is GlobalHeapHits.
	SuperblockMoves int64
	// GlobalHeapHits counts superblocks a per-processor heap took back
	// from the global heap on a malloc miss (Hoard only).
	GlobalHeapHits int64
	// OSReserves counts superblock/span requests that reached the
	// simulated OS.
	OSReserves int64
	// RemoteFrees counts frees performed by a thread other than the one
	// whose heap/arena owns the block (where the concept applies).
	RemoteFrees int64
	// MovedLiveBlocks sums the still-allocated blocks carried by
	// superblocks at the moment they were evicted to the global heap
	// (Hoard only) — each becomes a future remote free.
	MovedLiveBlocks int64
	// BatchRefills counts magazine refills, each served under a single
	// heap-lock acquisition (Hoard only).
	BatchRefills int64
	// BatchFlushes counts magazine and remote-batch flushes; each takes one
	// lock per owner group rather than one per block (Hoard only).
	BatchFlushes int64
	// BatchedBlocks counts blocks moved by those refills and flushes, in
	// both directions (Hoard only).
	BatchedBlocks int64
	// ScavengePasses counts ReleaseMemory passes that released at least
	// one superblock's pages back to the OS (Hoard only).
	ScavengePasses int64
	// ScavengedBytes is the cumulative byte total those passes decommitted
	// (Hoard only).
	ScavengedBytes int64
	// LockFreeMallocs and LockFreeFrees count operations a thread cache
	// served with no lock at all: mallocs popped from a magazine and frees
	// pushed onto a magazine or a remote batch, without a refill or flush
	// in the same call (Hoard's magazines only).
	LockFreeMallocs, LockFreeFrees int64
	// BackendFallbacks counts vm-backend selections that degraded to the
	// simulated space because the requested arena backend was unavailable
	// (0 or 1 per allocator; the reason is on the allocator itself).
	BackendFallbacks int64
	// LocalReuses counts malloc slow paths served by reformatting one of
	// the heap's own empty superblocks to the needed class instead of
	// taking one from the global heap (Hoard only). Each such reuse keeps
	// a(i) unchanged, so it triggers no eviction — the local antidote to
	// the take-then-evict ping-pong through the global heap.
	LocalReuses int64
}

// MergeAllocatorCounters overwrites every allocator-internal counter in dst
// with inner's values while preserving dst's application-view gauges —
// Mallocs, Frees, LiveBytes, and PeakLiveBytes. A layering allocator
// (debugalloc) reports its own application-level activity but must pass the
// wrapped allocator's machinery counters through; because this helper copies
// the whole struct and restores the application fields, counters added to
// Stats later propagate without touching the wrapper.
func MergeAllocatorCounters(dst *Stats, inner Stats) {
	app := *dst
	*dst = inner
	dst.Mallocs, dst.Frees = app.Mallocs, app.Frees
	dst.LiveBytes, dst.PeakLiveBytes = app.LiveBytes, app.PeakLiveBytes
}

// Accounting provides atomic live-byte gauges with a high-water mark,
// shared by all allocator implementations.
type Accounting struct {
	mallocs atomic.Int64
	frees   atomic.Int64
	live    atomic.Int64
	peak    atomic.Int64
	large   atomic.Int64
}

// OnMalloc records an allocation of usable size n.
func (a *Accounting) OnMalloc(n int) { a.OnMallocN(1, int64(n)) }

// OnMallocN records n allocations totalling bytes usable bytes in a single
// update — the batch paths' amortized accounting.
func (a *Accounting) OnMallocN(n int, bytes int64) {
	a.mallocs.Add(int64(n))
	v := a.live.Add(bytes)
	for {
		p := a.peak.Load()
		if v <= p || a.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// OnFree records a deallocation of usable size n.
func (a *Accounting) OnFree(n int) { a.OnFreeN(1, int64(n)) }

// OnFreeN records n deallocations totalling bytes usable bytes in a single
// update.
func (a *Accounting) OnFreeN(n int, bytes int64) {
	a.frees.Add(int64(n))
	a.live.Add(-bytes)
}

// OnLarge records that an allocation took the large-object path.
func (a *Accounting) OnLarge() { a.large.Add(1) }

// Fill populates the common fields of st.
func (a *Accounting) Fill(st *Stats) {
	st.Mallocs = a.mallocs.Load()
	st.Frees = a.frees.Load()
	st.LiveBytes = a.live.Load()
	st.PeakLiveBytes = a.peak.Load()
	st.LargeMallocs = a.large.Load()
}

// Live returns the current live usable bytes.
func (a *Accounting) Live() int64 { return a.live.Load() }
