// Package tcache layers bounded per-thread block caches ("magazines") on
// top of any allocator — the design direction Hoard's successors took
// (Hoard 3.x's thread caches, tcmalloc's thread caches, jemalloc's tcache).
//
// Malloc first pops the calling thread's magazine for the size class, with
// no lock at all; free pushes onto it. Overflow flushes half the magazine
// to the inner allocator (real frees, respecting its ownership discipline);
// underflow refills a batch (real mallocs). Refills and flushes go through
// batch calls, so an inner allocator implementing alloc.BatchAllocator
// (Hoard, serial) serves each half-magazine transfer under a single
// heap-lock acquisition; other allocators transparently fall back to
// per-block calls.
//
// Over Hoard the magazines are owner-aware (DESIGN.md §11). A free whose
// superblock another heap owns never enters the freeing thread's magazines:
// it goes to a per-thread remote batch, flushed to the owners when full —
// the paper's free-to-owner rule, so passive false sharing stays away. And
// the superblock's free bit stays authoritative: a cached block has its bit
// set, a pop clears it, and a free sets it, so a double free panics at the
// call even when the first free went no further than a cache. Refills and
// flushes hand the bit state over inside Hoard's own batch calls, and every
// cached block carries its superblock, so no magazine operation looks a
// block up.
//
// The cache trades bounded extra memory for its lock-free fast paths: at
// most Capacity blocks per class, plus a remote batch of Capacity blocks,
// per thread (reported as CachedBytes). Cached blocks count as in use to
// the inner allocator's emptiness invariant until a flush returns them.
// Over allocators without owners (serial and the other baselines) a freed
// block enters the freeing thread's magazine whoever allocated it, so
// line-mates can split across threads: passive false sharing returns.
package tcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// Config parameterizes the cache.
type Config struct {
	// Capacity is the maximum blocks cached per size class per thread, and
	// the size of the remote batch (0 selects DefaultCapacity). A flush
	// returns half the magazine.
	Capacity int
	// MaxCachedSize is the largest block size worth caching (0 selects
	// 4096, the default allocators' largest class). Larger blocks bypass
	// the cache entirely.
	MaxCachedSize int
}

// DefaultCapacity is the magazine capacity a zero Config.Capacity selects.
const DefaultCapacity = 64

// ownerAware is the inner-allocator side of owner-aware magazines;
// core.Hoard implements it. New type-asserts it once.
type ownerAware interface {
	// ResolveFree looks p up once for a free: its usable size, its
	// superblock (nil for a large object), and whether the calling
	// thread's heap owns that superblock.
	ResolveFree(t *alloc.Thread, p alloc.Ptr) (sb *superblock.Superblock, usable int, local bool)
	// MallocCached is MallocBatch for a refill: the blocks keep their free
	// bits set, and sbs[i] receives out[i]'s superblock.
	MallocCached(t *alloc.Thread, size, n int, out []alloc.Ptr, sbs []*superblock.Superblock) int
	// FreeCached is FreeBatch for a flush of cached blocks, whose free
	// bits are set; sbs[i] is ps[i]'s superblock. Both slices are
	// scratch space to it.
	FreeCached(t *alloc.Thread, ps []alloc.Ptr, sbs []*superblock.Superblock)
	// CheckIntegrityCached is CheckIntegrity with the cached blocks
	// counted.
	CheckIntegrityCached(cached []alloc.Ptr) error
}

// Allocator wraps an inner allocator with per-thread magazines.
type Allocator struct {
	inner   alloc.Allocator
	owned   ownerAware // inner, when it is owner-aware; nil otherwise
	cfg     Config
	classes *sizeclass.Table
	acct    alloc.Accounting

	// mallocMisses and freeMisses count the operations the caches did not
	// serve alone: a refill or flush in the same call, or a bypass. Every
	// other operation is a lock-free hit. Misses are counted rather than
	// hits because they are rare.
	mallocMisses, freeMisses atomic.Int64

	mu      sync.Mutex
	threads []*threadState
}

// threadState holds one thread's magazines and its inner-allocator handle.
type threadState struct {
	inner *alloc.Thread
	mags  [][]alloc.Ptr // per class
	// sbs parallels mags over an owner-aware inner allocator: sbs[c][i] is
	// the superblock of mags[c][i]. Its entries are nil otherwise.
	sbs [][]*superblock.Superblock

	// remote and remoteSBs are the remote batch: freed blocks whose
	// superblock another heap owns, and their superblocks, waiting to be
	// flushed to their owners. Owner-aware inner allocators only.
	remote    []alloc.Ptr
	remoteSBs []*superblock.Superblock

	// scratch and scratchSBs are the refill staging buffers, reused across
	// underflows so a steady-state refill performs no Go allocation.
	scratch    []alloc.Ptr
	scratchSBs []*superblock.Superblock

	// magBytes is the sampler-visible cache-fill gauge. Only the owning
	// thread writes it, and only at transfer boundaries (refill, flush,
	// thread retirement) — a per-op atomic update would tax every cached
	// push and pop — so a concurrent sampler sees a value that lags the
	// true fill by at most half a magazine per class, plus the remote
	// batch. CachedBytes is the exact quiescent equivalent.
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
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Capacity < MinCapacity {
		panic(fmt.Sprintf("tcache: capacity %d too small", cfg.Capacity))
	}
	if cfg.MaxCachedSize == 0 {
		cfg.MaxCachedSize = 4096
	}
	owned, _ := inner.(ownerAware)
	return &Allocator{
		inner:   inner,
		owned:   owned,
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
		sbs:   make([][]*superblock.Superblock, a.classes.NumClasses()),
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
		a.mallocMisses.Add(1)
		return a.mallocInner(ts, size)
	}
	n := len(ts.mags[class])
	if n == 0 {
		a.mallocMisses.Add(1)
		a.refill(ts, class)
		if n = len(ts.mags[class]); n == 0 {
			// The inner allocator's size classes don't round-trip
			// through ours (non-default parameters): bypass.
			return a.mallocInner(ts, size)
		}
	}
	n--
	p, sb := ts.mags[class][n], ts.sbs[class][n]
	ts.mags[class], ts.sbs[class] = ts.mags[class][:n], ts.sbs[class][:n]
	if sb != nil {
		sb.ClaimCached(p)
	}
	t.Env.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(a.classes.Size(class))
	return p
}

func (a *Allocator) mallocInner(ts *threadState, size int) alloc.Ptr {
	p := a.inner.Malloc(ts.inner, size)
	a.acct.OnMalloc(a.inner.UsableSize(p))
	return p
}

// MallocAligned returns a block of at least size bytes whose address is a
// multiple of align from the inner allocator's native aligned path, which it
// must have (Hoard does). The block bypasses the magazines on the way out;
// its free is an ordinary one.
func (a *Allocator) MallocAligned(t *alloc.Thread, size, align int) alloc.Ptr {
	inner, ok := a.inner.(interface {
		MallocAligned(t *alloc.Thread, size, align int) alloc.Ptr
	})
	if !ok {
		panic(fmt.Sprintf("tcache: %s has no aligned malloc", a.inner.Name()))
	}
	ts := t.State.(*threadState)
	a.mallocMisses.Add(1)
	p := inner.MallocAligned(ts.inner, size, align)
	a.acct.OnMalloc(a.inner.UsableSize(p))
	return p
}

// refill fills half a magazine from the inner allocator with one batch call
// — a single heap-lock acquisition when the inner allocator batches
// natively. Only blocks whose inner usable size exactly matches our class
// size are cacheable — otherwise the magazine's byte accounting (and Free's
// round-trip check) would drift; mismatches are freed straight back, and an
// all-mismatch refill leaves the magazine empty so Malloc bypasses.
func (a *Allocator) refill(ts *threadState, class int) {
	blockSize := a.classes.Size(class)
	n := a.cfg.Capacity / 2
	if cap(ts.scratch) < n {
		ts.scratch = make([]alloc.Ptr, n)
		ts.scratchSBs = make([]*superblock.Superblock, n)
	}
	buf, sbs := ts.scratch[:n], ts.scratchSBs[:n]
	var got int
	if a.owned != nil {
		got = a.owned.MallocCached(ts.inner, blockSize, n, buf, sbs)
	} else {
		got = alloc.MallocBatch(a.inner, ts.inner, blockSize, n, buf)
	}
	// Mismatched blocks (inner size classes that don't round-trip through
	// ours) are compacted to the front of buf and freed back; cacheable
	// ones go on the magazine. No allocation either way.
	bad := 0
	for i, p := range buf[:got] {
		var usable int
		if a.owned != nil {
			usable = sbs[i].BlockSize()
		} else {
			sbs[i] = nil
			usable = a.inner.UsableSize(p)
		}
		if usable != blockSize {
			buf[bad], sbs[bad] = p, sbs[i]
			bad++
			continue
		}
		ts.mags[class] = append(ts.mags[class], p)
		ts.sbs[class] = append(ts.sbs[class], sbs[i])
	}
	if bad > 0 {
		a.freeInner(ts, buf[:bad], sbs[:bad])
	}
	a.publishMagBytes(ts)
}

// freeInner returns cached blocks to the inner allocator with one batch
// call: FreeCached over an owner-aware allocator, FreeBatch otherwise.
func (a *Allocator) freeInner(ts *threadState, ps []alloc.Ptr, sbs []*superblock.Superblock) {
	if a.owned != nil {
		a.owned.FreeCached(ts.inner, ps, sbs)
	} else {
		alloc.FreeBatch(a.inner, ts.inner, ps)
	}
}

// publishMagBytes recomputes ts's cache fill from the magazine lengths and
// the remote batch and publishes it for concurrent samplers. Called only at
// transfer boundaries, which keeps the malloc/free fast paths free of extra
// atomics; between boundaries the published value is stale by whatever the
// fast paths have pushed or popped since.
func (a *Allocator) publishMagBytes(ts *threadState) {
	ts.magBytes.Store(a.cachedBytes(ts))
}

// cachedBytes is the exact byte total of ts's magazines and remote batch.
// Only the owning thread, or a caller holding a quiescent allocator, may
// call it.
func (a *Allocator) cachedBytes(ts *threadState) int64 {
	var total int64
	for class, mag := range ts.mags {
		total += int64(len(mag)) * int64(a.classes.Size(class))
	}
	for _, sb := range ts.remoteSBs {
		total += int64(sb.BlockSize())
	}
	return total
}

// Free implements alloc.Allocator. The block lands in the freeing thread's
// magazine — over an owner-aware inner allocator only if the thread's heap
// owns it; a block another heap owns goes to the remote batch instead.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	ts := t.State.(*threadState)
	var sb *superblock.Superblock
	var usable int
	local := true
	if a.owned != nil {
		sb, usable, local = a.owned.ResolveFree(ts.inner, p)
	} else {
		usable = a.inner.UsableSize(p)
	}
	class, ok := a.classFor(usable)
	if !ok || a.classes.Size(class) != usable || ts.retired || (a.owned != nil && sb == nil) {
		// Bypass sizes, and blocks whose inner class doesn't round-trip
		// through our table, go straight down.
		a.freeMisses.Add(1)
		a.inner.Free(ts.inner, p)
		a.acct.OnFree(usable)
		return
	}
	if sb != nil {
		// Panics on a double free, before anything else changes.
		sb.MarkCached(p)
	}
	t.Env.Charge(env.OpFree, 1)
	a.acct.OnFree(usable)
	if !local {
		ts.remote = append(ts.remote, p)
		ts.remoteSBs = append(ts.remoteSBs, sb)
		if len(ts.remote) >= a.cfg.Capacity {
			a.freeMisses.Add(1)
			a.flushRemote(ts)
		}
		return
	}
	ts.mags[class] = append(ts.mags[class], p)
	ts.sbs[class] = append(ts.sbs[class], sb)
	if len(ts.mags[class]) > a.cfg.Capacity {
		a.freeMisses.Add(1)
		a.flush(ts, class)
	}
}

// flush returns half the magazine to the inner allocator with one batch
// call — a single heap-lock acquisition per owner heap when the inner
// allocator batches natively.
func (a *Allocator) flush(ts *threadState, class int) {
	keep := a.cfg.Capacity / 2
	a.freeInner(ts, ts.mags[class][keep:], ts.sbs[class][keep:])
	ts.mags[class], ts.sbs[class] = ts.mags[class][:keep], ts.sbs[class][:keep]
	a.publishMagBytes(ts)
}

// flushRemote returns the whole remote batch to the blocks' owners.
func (a *Allocator) flushRemote(ts *threadState) {
	a.owned.FreeCached(ts.inner, ts.remote, ts.remoteSBs)
	ts.remote, ts.remoteSBs = ts.remote[:0], ts.remoteSBs[:0]
	a.publishMagBytes(ts)
}

// FlushThread returns every magazine and the remote batch of t to the inner
// allocator and deregisters the thread — what a thread-exit hook does in
// tcmalloc. The handle remains usable afterwards (stray late operations
// bypass the magazines), but the thread no longer contributes to
// CachedBytes, CheckIntegrity, or Threads, and its state can be collected
// once the caller drops the handle.
func (a *Allocator) FlushThread(t *alloc.Thread) {
	ts := t.State.(*threadState)
	for class, mag := range ts.mags {
		if len(mag) > 0 {
			a.freeInner(ts, mag, ts.sbs[class])
		}
		ts.mags[class], ts.sbs[class] = nil, nil
	}
	if len(ts.remote) > 0 {
		a.flushRemote(ts)
	}
	ts.remote, ts.remoteSBs = nil, nil
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

// CachedBytes reports the bytes currently sitting in magazines and remote
// batches (requires quiescence).
func (a *Allocator) CachedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total int64
	for _, ts := range a.threads {
		total += a.cachedBytes(ts)
	}
	return total
}

// MagazineBytes is the metrics-sampler view of cache fill: a sum of every
// registered thread's cache-byte gauge, safe to read while owner threads
// keep pushing and popping. Each gauge is published at transfer boundaries
// only, so the sum lags true fill by at most half a magazine per class,
// plus the remote batch, per thread; CachedBytes is the exact (quiescent)
// equivalent.
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
// and live-byte counters (cached blocks count as free) and the caches'
// lock-free operation counts over the inner allocator's mechanism counters.
func (a *Allocator) Stats() alloc.Stats {
	var st alloc.Stats
	a.acct.Fill(&st)
	alloc.MergeAllocatorCounters(&st, a.inner.Stats())
	st.LockFreeMallocs = max(st.Mallocs-a.mallocMisses.Load(), 0)
	st.LockFreeFrees = max(st.Frees-a.freeMisses.Load(), 0)
	return st
}

// CheckIntegrity implements alloc.Allocator: magazines must hold distinct,
// correctly-sized blocks, each with its superblock when the inner allocator
// is owner-aware; the inner allocator's live bytes must equal application
// live bytes plus cached bytes; and the inner allocator must itself be
// intact — over an owner-aware allocator with every cached block counted,
// which proves each one's free bit is set and none is also in the
// application's hands. Requires quiescence.
func (a *Allocator) CheckIntegrity() error {
	cached, err := a.cachedBlocks()
	if err != nil {
		return err
	}
	var cachedBytes int64
	for _, p := range cached {
		cachedBytes += int64(a.inner.UsableSize(p))
	}
	if innerLive := a.inner.Stats().LiveBytes; innerLive != a.acct.Live()+cachedBytes {
		return fmt.Errorf("tcache: inner live %d != app live %d + cached %d", innerLive, a.acct.Live(), cachedBytes)
	}
	if a.owned != nil {
		return a.owned.CheckIntegrityCached(cached)
	}
	return a.inner.CheckIntegrity()
}

// cachedBlocks checks the shape of every registered thread's magazines and
// remote batch and returns the blocks they hold.
func (a *Allocator) cachedBlocks() ([]alloc.Ptr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := make(map[alloc.Ptr]bool)
	var cached []alloc.Ptr
	add := func(p alloc.Ptr, sb *superblock.Superblock) error {
		if seen[p] {
			return fmt.Errorf("tcache: block %#x cached twice", uint64(p))
		}
		seen[p] = true
		if a.owned != nil {
			if got, ok := superblock.FromPtr(a.inner.Space(), p); !ok || got != sb {
				return fmt.Errorf("tcache: cached block %#x filed under the wrong superblock", uint64(p))
			}
		}
		cached = append(cached, p)
		return nil
	}
	for ti, ts := range a.threads {
		for class, mag := range ts.mags {
			want := a.classes.Size(class)
			if len(mag) > a.cfg.Capacity {
				return nil, fmt.Errorf("tcache: thread %d class %d magazine over capacity: %d", ti, class, len(mag))
			}
			if len(ts.sbs[class]) != len(mag) {
				return nil, fmt.Errorf("tcache: thread %d class %d: %d blocks but %d superblocks", ti, class, len(mag), len(ts.sbs[class]))
			}
			for i, p := range mag {
				if err := add(p, ts.sbs[class][i]); err != nil {
					return nil, err
				}
				if got := a.inner.UsableSize(p); got != want {
					return nil, fmt.Errorf("tcache: cached block %#x usable %d on class-%d magazine (%d)", uint64(p), got, class, want)
				}
			}
		}
		if len(ts.remote) >= a.cfg.Capacity || len(ts.remoteSBs) != len(ts.remote) {
			return nil, fmt.Errorf("tcache: thread %d remote batch holds %d blocks and %d superblocks (capacity %d)",
				ti, len(ts.remote), len(ts.remoteSBs), a.cfg.Capacity)
		}
		for i, p := range ts.remote {
			if err := add(p, ts.remoteSBs[i]); err != nil {
				return nil, err
			}
		}
	}
	return cached, nil
}
