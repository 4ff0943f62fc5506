// Package alloc defines the types shared by every allocator in this
// reproduction: the simulated pointer type, per-thread handles, the common
// Allocator interface, and usage accounting.
//
// Six allocators implement Allocator, mirroring the paper's full taxonomy
// (§2 of DESIGN.md), plus one layered extension:
//
//   - internal/core:       Hoard (the paper's contribution)
//   - internal/serial:     single-lock serial heap ("Solaris malloc"-like)
//   - internal/concurrent: single heap, per-size-class locks (Iyengar-like)
//   - internal/private:    pure private heaps (Cilk/STL-like)
//   - internal/ownership:  private heaps with ownership (Ptmalloc/MTmalloc-like)
//   - internal/threshold:  private heaps with thresholds (DYNIX-like)
//   - internal/tcache:     per-thread magazines over any of the above
//     (the tcmalloc direction; an extension experiment)
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

// Allocator is the interface all five allocators implement.
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
	// a no-op; double frees and foreign pointers panic.
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

// BatchAllocator is optionally implemented by allocators that can transfer
// several blocks of one size class per lock acquisition. The package-level
// MallocBatch and FreeBatch helpers dispatch to the native implementation
// when present and fall back to per-block Malloc/Free otherwise, so callers
// (the tcache magazine layer, batch-aware applications) work against any
// Allocator.
type BatchAllocator interface {
	// MallocBatch allocates up to n blocks of at least size bytes each
	// into out[:n] and returns the number obtained (all the allocators
	// here always obtain n; the count exists for future allocators with a
	// real exhaustion mode). n must not exceed len(out). Implementations
	// acquire their heap lock once per batch, not once per block.
	MallocBatch(t *Thread, size, n int, out []Ptr) int

	// FreeBatch releases every block in ps. Nil pointers are skipped.
	// Implementations group the pointers by owner and take each owner's
	// lock once per group, not once per block.
	FreeBatch(t *Thread, ps []Ptr)
}

// ThreadFlusher is optionally implemented by layered allocators that strand
// per-thread state (tcache magazines, the debug quarantine). FlushThread
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

// MallocBatch allocates up to n blocks of at least size bytes each into
// out[:n], using a's native batch path when it implements BatchAllocator and
// per-block Mallocs otherwise. It returns the number of blocks obtained.
func MallocBatch(a Allocator, t *Thread, size, n int, out []Ptr) int {
	if b, ok := a.(BatchAllocator); ok {
		return b.MallocBatch(t, size, n, out)
	}
	for i := 0; i < n; i++ {
		out[i] = a.Malloc(t, size)
	}
	return n
}

// FreeBatch releases every block in ps, using a's native batch path when it
// implements BatchAllocator and per-block Frees otherwise.
func FreeBatch(a Allocator, t *Thread, ps []Ptr) {
	if b, ok := a.(BatchAllocator); ok {
		b.FreeBatch(t, ps)
		return
	}
	for _, p := range ps {
		a.Free(t, p)
	}
}

// NoBatch hides an allocator's native batch implementation: the embedded
// interface promotes only the Allocator methods, so a type assertion to
// BatchAllocator fails and the package-level batch helpers fall back to the
// per-block path. Experiments and tests use it to ablate exactly where
// batching's win comes from.
type NoBatch struct{ Allocator }

// Stats is a snapshot of allocator activity. Fields that do not apply to a
// given allocator are zero.
type Stats struct {
	// Mallocs and Frees count completed operations.
	Mallocs, Frees int64
	// LiveBytes is the usable (class-rounded) bytes currently allocated.
	LiveBytes int64
	// PeakLiveBytes is the high-water mark of LiveBytes.
	PeakLiveBytes int64
	// LargeMallocs counts allocations that took the large-object path.
	LargeMallocs int64
	// SuperblockMoves counts superblock transfers between per-processor
	// heaps and the global heap (Hoard only).
	SuperblockMoves int64
	// GlobalHeapHits counts mallocs satisfied by reusing a superblock
	// from the global heap (Hoard only).
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
	// BatchRefills counts native MallocBatch calls (one magazine refill,
	// when driven by the tcache layer) served under a single heap-lock
	// acquisition.
	BatchRefills int64
	// BatchFlushes counts native FreeBatch calls (one magazine flush, when
	// driven by the tcache layer); each takes one lock per owner group
	// rather than one per block.
	BatchFlushes int64
	// BatchedBlocks counts blocks transferred through the native batch
	// paths, in both directions. Zero when only the per-block fallback ran.
	BatchedBlocks int64
	// ScavengePasses counts scavenge passes that released at least one
	// superblock's pages back to the OS (Hoard only).
	ScavengePasses int64
	// ScavengedBytes is the cumulative byte total decommitted by the
	// scavenger, including forced ReleaseMemory passes (Hoard only).
	ScavengedBytes int64
	// LockFreeMallocs and LockFreeFrees count operations a thread cache
	// served with no lock at all: mallocs popped from a magazine and frees
	// pushed onto a magazine or a remote batch, without a refill or flush
	// in the same call (tcache only).
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
// Mallocs, Frees, LiveBytes, and PeakLiveBytes. Layering allocators (tcache,
// debugalloc) report their own application-level activity but must pass the
// wrapped allocator's machinery counters through; because this helper copies
// the whole struct and restores the application fields, counters added to
// Stats later propagate without touching the wrappers.
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
func (a *Accounting) OnMalloc(n int) {
	a.mallocs.Add(1)
	v := a.live.Add(int64(n))
	for {
		p := a.peak.Load()
		if v <= p || a.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// OnMallocN records n allocations totalling bytes usable bytes in one
// update: one counter add and one high-water check for the whole batch.
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
func (a *Accounting) OnFree(n int) {
	a.frees.Add(1)
	a.live.Add(int64(-n))
}

// OnFreeN records n deallocations totalling bytes usable bytes in one
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

// ResetPeak lowers the live-bytes high-water mark to the current value.
func (a *Accounting) ResetPeak() { a.peak.Store(a.live.Load()) }

// ShardedAccounting is Accounting with its hot counters split across
// cache-line-padded shards so threads on different heaps stop bouncing the
// same cache lines on every malloc and free. Callers pick a shard per
// operation (Hoard uses the heap index); Fill and Live aggregate.
//
// PeakLiveBytes becomes an upper bound: each shard tracks its own
// high-water mark and Fill sums them, and per-shard peaks need not occur
// simultaneously. LiveBytes, Mallocs, and Frees remain exact at quiescence.
type ShardedAccounting struct {
	shards []acctShard
}

type acctShard struct {
	mallocs atomic.Int64
	frees   atomic.Int64
	live    atomic.Int64
	peak    atomic.Int64
	large   atomic.Int64
	_       [88]byte // pad to 128 bytes: separate cache-line pair per shard
}

// NewSharded creates accounting with n shards (at least 1).
func NewSharded(n int) *ShardedAccounting {
	if n < 1 {
		n = 1
	}
	return &ShardedAccounting{shards: make([]acctShard, n)}
}

func (a *ShardedAccounting) shard(i int) *acctShard {
	if i < 0 {
		i = -i
	}
	return &a.shards[i%len(a.shards)]
}

// OnMalloc records an allocation of usable size n against one shard.
func (a *ShardedAccounting) OnMalloc(shard, n int) {
	s := a.shard(shard)
	s.mallocs.Add(1)
	v := s.live.Add(int64(n))
	for {
		p := s.peak.Load()
		if v <= p || s.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// OnMallocN records n allocations totalling bytes usable bytes against one
// shard in a single update — the batch paths' amortized accounting.
func (a *ShardedAccounting) OnMallocN(shard, n int, bytes int64) {
	s := a.shard(shard)
	s.mallocs.Add(int64(n))
	v := s.live.Add(bytes)
	for {
		p := s.peak.Load()
		if v <= p || s.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// OnFree records a deallocation of usable size n against one shard. The
// shard need not match the one that recorded the malloc; per-shard live
// gauges can go negative, only the sum is meaningful.
func (a *ShardedAccounting) OnFree(shard, n int) {
	s := a.shard(shard)
	s.frees.Add(1)
	s.live.Add(int64(-n))
}

// OnFreeN records n deallocations totalling bytes usable bytes against one
// shard in a single update.
func (a *ShardedAccounting) OnFreeN(shard, n int, bytes int64) {
	s := a.shard(shard)
	s.frees.Add(int64(n))
	s.live.Add(-bytes)
}

// OnLarge records that an allocation took the large-object path.
func (a *ShardedAccounting) OnLarge(shard int) { a.shard(shard).large.Add(1) }

// Fill populates the common fields of st by summing all shards.
func (a *ShardedAccounting) Fill(st *Stats) {
	for i := range a.shards {
		s := &a.shards[i]
		st.Mallocs += s.mallocs.Load()
		st.Frees += s.frees.Load()
		st.LiveBytes += s.live.Load()
		st.PeakLiveBytes += s.peak.Load()
		st.LargeMallocs += s.large.Load()
	}
}

// Live returns the current live usable bytes summed across shards.
func (a *ShardedAccounting) Live() int64 {
	var v int64
	for i := range a.shards {
		v += a.shards[i].live.Load()
	}
	return v
}
