// Package tcache layers bounded per-thread block caches ("magazines") on
// top of any allocator — the design direction Hoard's successors took
// (Hoard 3.x's thread caches, tcmalloc's thread caches, jemalloc's tcache).
//
// Malloc first pops the calling thread's magazine for the size class, with
// no lock at all; free pushes onto it. Overflow flushes half the magazine
// to the inner allocator (real frees, respecting its ownership discipline);
// underflow refills a batch (real mallocs). Refills and flushes go through
// the alloc.MallocBatch/FreeBatch shims, so an inner allocator implementing
// alloc.BatchAllocator (Hoard, serial) serves each half-magazine transfer
// under a single heap-lock acquisition; other allocators transparently fall
// back to per-block calls. The cache trades three things against lock-free
// fast paths, all measurable with this package:
//
//   - bounded extra memory: at most Capacity blocks per class per thread
//     are stranded in magazines (reported as CachedBytes);
//   - passive false sharing returns: a block freed into thread A's
//     magazine is re-issued to thread A even if thread B's heap owns it,
//     so line-mates can split across threads again — exactly the effect
//     Hoard's free-to-owner rule eliminates (the paper's §2 tradeoff,
//     which is why Hoard 1.0 did not have thread caches);
//   - staleness: cached blocks are invisible to the inner allocator's
//     emptiness invariant, delaying superblock recycling.
package tcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/vm"
)

// Config parameterizes the cache.
type Config struct {
	// Capacity is the maximum blocks cached per size class per thread
	// (0 selects 32). A flush returns half the magazine.
	Capacity int
	// MaxCachedSize is the largest block size worth caching (0 selects
	// 4096, the default allocators' largest class). Larger blocks bypass
	// the cache entirely.
	MaxCachedSize int
}

// Allocator wraps an inner allocator with per-thread magazines.
type Allocator struct {
	inner   alloc.Allocator
	cfg     Config
	classes *sizeclass.Table
	acct    alloc.Accounting

	mu      sync.Mutex
	threads []*threadState
}

// threadState holds one thread's magazines and its inner-allocator handle.
type threadState struct {
	inner *alloc.Thread
	mags  [][]alloc.Ptr // per class

	// scratch is the refill staging buffer, reused across underflows so a
	// steady-state refill performs no Go allocation.
	scratch []alloc.Ptr

	// magBytes is the sampler-visible magazine-fill gauge. Only the owning
	// thread writes it, and only at transfer boundaries (refill, flush,
	// thread retirement) — a per-op atomic update would tax every cached
	// push and pop — so a concurrent sampler sees a value that lags the
	// true fill by at most half a magazine per class. CachedBytes is the
	// exact quiescent equivalent.
	magBytes atomic.Int64

	// retired is set by FlushThread. A retired thread's handle stays
	// usable — tcmalloc tolerates stray frees after thread exit — but
	// bypasses the magazines entirely, so no block can be stranded in a
	// cache that CachedBytes and CheckIntegrity no longer see. Only the
	// owning thread reads or writes it, like mags.
	retired bool
}

// MinCapacity is the smallest magazine capacity: refills and flushes move
// Capacity/2 blocks, so anything below 2 degenerates.
const MinCapacity = 2

// New wraps inner with thread caches. It panics on a capacity below
// MinCapacity.
func New(inner alloc.Allocator, cfg Config) *Allocator {
	if cfg.Capacity == 0 {
		cfg.Capacity = 32
	}
	if cfg.Capacity < MinCapacity {
		panic(fmt.Sprintf("tcache: capacity %d too small", cfg.Capacity))
	}
	if cfg.MaxCachedSize == 0 {
		cfg.MaxCachedSize = 4096
	}
	return &Allocator{
		inner:   inner,
		cfg:     cfg,
		classes: sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, cfg.MaxCachedSize),
	}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.inner.Name() + "+tcache" }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.inner.Space() }

// Inner returns the wrapped allocator.
func (a *Allocator) Inner() alloc.Allocator { return a.inner }

// NewThread implements alloc.Allocator.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	ts := &threadState{
		inner: a.inner.NewThread(e),
		mags:  make([][]alloc.Ptr, a.classes.NumClasses()),
	}
	a.mu.Lock()
	a.threads = append(a.threads, ts)
	a.mu.Unlock()
	return &alloc.Thread{ID: ts.inner.ID, Env: e, State: ts}
}

// classFor returns the magazine slot for a request size, or ok=false if the
// size bypasses the cache.
func (a *Allocator) classFor(size int) (int, bool) {
	return a.classes.ClassFor(size)
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	ts := t.State.(*threadState)
	class, ok := a.classFor(size)
	if !ok || ts.retired {
		p := a.inner.Malloc(ts.inner, size)
		a.acct.OnMalloc(a.inner.UsableSize(p))
		return p
	}
	mag := ts.mags[class]
	if len(mag) == 0 {
		a.refill(ts, class)
		mag = ts.mags[class]
		if len(mag) == 0 {
			// The inner allocator's size classes don't round-trip
			// through ours (non-default parameters): bypass.
			p := a.inner.Malloc(ts.inner, size)
			a.acct.OnMalloc(a.inner.UsableSize(p))
			return p
		}
	}
	p := mag[len(mag)-1]
	ts.mags[class] = mag[:len(mag)-1]
	t.Env.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(a.classes.Size(class))
	return p
}

// refill fills half a magazine from the inner allocator with one
// alloc.MallocBatch call — a single heap-lock acquisition when the inner
// allocator batches natively. Only blocks whose inner usable size exactly
// matches our class size are cacheable — otherwise the magazine's byte
// accounting (and Free's round-trip check) would drift; mismatches are
// batch-freed straight back, and an all-mismatch refill leaves the magazine
// empty so Malloc bypasses.
func (a *Allocator) refill(ts *threadState, class int) {
	blockSize := a.classes.Size(class)
	n := a.cfg.Capacity / 2
	if cap(ts.scratch) < n {
		ts.scratch = make([]alloc.Ptr, n)
	}
	buf := ts.scratch[:n]
	got := alloc.MallocBatch(a.inner, ts.inner, blockSize, n, buf)
	// Mismatched blocks (inner size classes that don't round-trip through
	// ours) are compacted to the front of buf and batch-freed; cacheable
	// ones go on the magazine. No allocation either way.
	bad := 0
	for _, p := range buf[:got] {
		if a.inner.UsableSize(p) != blockSize {
			buf[bad] = p
			bad++
			continue
		}
		ts.mags[class] = append(ts.mags[class], p)
	}
	if bad > 0 {
		alloc.FreeBatch(a.inner, ts.inner, buf[:bad])
	}
	a.publishMagBytes(ts)
}

// publishMagBytes recomputes ts's magazine fill from the magazine lengths
// and publishes it for concurrent samplers. Called only at transfer
// boundaries, which keeps the malloc/free fast paths free of extra atomics;
// between boundaries the published value is stale by whatever the fast
// paths have pushed or popped since.
func (a *Allocator) publishMagBytes(ts *threadState) {
	var total int64
	for class, mag := range ts.mags {
		total += int64(len(mag)) * int64(a.classes.Size(class))
	}
	ts.magBytes.Store(total)
}

// Free implements alloc.Allocator. The block lands in the *freeing*
// thread's magazine (the tcmalloc behavior, and the passive-false-sharing
// tradeoff documented above).
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	ts := t.State.(*threadState)
	usable := a.inner.UsableSize(p)
	class, ok := a.classFor(usable)
	if !ok || a.classes.Size(class) != usable || ts.retired {
		// Bypass sizes, and blocks whose inner class doesn't round-trip
		// through our table, go straight down.
		a.acct.OnFree(usable)
		a.inner.Free(ts.inner, p)
		return
	}
	ts.mags[class] = append(ts.mags[class], p)
	t.Env.Charge(env.OpFree, 1)
	a.acct.OnFree(usable)
	if len(ts.mags[class]) > a.cfg.Capacity {
		a.flush(ts, class)
	}
}

// flush returns half the magazine to the inner allocator with one
// alloc.FreeBatch call — a single heap-lock acquisition per owning
// superblock group when the inner allocator batches natively.
func (a *Allocator) flush(ts *threadState, class int) {
	mag := ts.mags[class]
	keep := a.cfg.Capacity / 2
	alloc.FreeBatch(a.inner, ts.inner, mag[keep:])
	ts.mags[class] = mag[:keep]
	a.publishMagBytes(ts)
}

// FlushThread batch-frees every magazine of t back to the inner allocator
// and deregisters the thread — what a thread-exit hook does in tcmalloc.
// The handle remains usable afterwards (stray late operations bypass the
// magazines), but the thread no longer contributes to CachedBytes,
// CheckIntegrity, or Threads, and its state can be collected once the
// caller drops the handle.
func (a *Allocator) FlushThread(t *alloc.Thread) {
	ts := t.State.(*threadState)
	for class, mag := range ts.mags {
		if len(mag) > 0 {
			alloc.FreeBatch(a.inner, ts.inner, mag)
		}
		ts.mags[class] = nil
	}
	ts.magBytes.Store(0)
	ts.retired = true
	a.mu.Lock()
	for i, s := range a.threads {
		if s == ts {
			a.threads = append(a.threads[:i], a.threads[i+1:]...)
			break
		}
	}
	a.mu.Unlock()
}

// Threads reports the number of registered (not yet flushed) threads.
func (a *Allocator) Threads() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.threads)
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(p alloc.Ptr) int { return a.inner.UsableSize(p) }

// Bytes implements alloc.Allocator.
func (a *Allocator) Bytes(p alloc.Ptr, n int) []byte { return a.inner.Bytes(p, n) }

// CachedBytes reports the bytes currently sitting in magazines (requires
// quiescence).
func (a *Allocator) CachedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total int64
	for _, ts := range a.threads {
		for class, mag := range ts.mags {
			total += int64(len(mag)) * int64(a.classes.Size(class))
		}
	}
	return total
}

// MagazineBytes is the metrics-sampler view of magazine fill: a sum of
// every registered thread's magazine-byte gauge, safe to read while owner
// threads keep pushing and popping. Each gauge is published at transfer
// boundaries only, so the sum lags true fill by at most half a magazine per
// class per thread; CachedBytes is the exact (quiescent) equivalent.
func (a *Allocator) MagazineBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total int64
	for _, ts := range a.threads {
		total += ts.magBytes.Load()
	}
	return total
}

// Stats implements alloc.Allocator, reporting application-level operation
// and live-byte counters (cached blocks count as free) over the inner
// allocator's mechanism counters.
func (a *Allocator) Stats() alloc.Stats {
	var st alloc.Stats
	a.acct.Fill(&st)
	alloc.MergeAllocatorCounters(&st, a.inner.Stats())
	return st
}

// CheckIntegrity implements alloc.Allocator: magazines must hold distinct,
// live, correctly-sized blocks; the inner allocator's live bytes must equal
// application live bytes plus cached bytes; and the inner allocator must
// itself be intact. Requires quiescence.
func (a *Allocator) CheckIntegrity() error {
	a.mu.Lock()
	seen := make(map[alloc.Ptr]bool)
	var cached int64
	for ti, ts := range a.threads {
		for class, mag := range ts.mags {
			want := a.classes.Size(class)
			if len(mag) > a.cfg.Capacity {
				a.mu.Unlock()
				return fmt.Errorf("tcache: thread %d class %d magazine over capacity: %d", ti, class, len(mag))
			}
			for _, p := range mag {
				if seen[p] {
					a.mu.Unlock()
					return fmt.Errorf("tcache: block %#x cached twice", uint64(p))
				}
				seen[p] = true
				if got := a.inner.UsableSize(p); got != want {
					a.mu.Unlock()
					return fmt.Errorf("tcache: cached block %#x usable %d on class-%d magazine (%d)", uint64(p), got, class, want)
				}
				cached += int64(want)
			}
		}
	}
	a.mu.Unlock()
	if innerLive := a.inner.Stats().LiveBytes; innerLive != a.acct.Live()+cached {
		return fmt.Errorf("tcache: inner live %d != app live %d + cached %d", innerLive, a.acct.Live(), cached)
	}
	return a.inner.CheckIntegrity()
}
