// Package tcache is Hoard's per-thread block caches ("magazines") — the
// design direction Hoard's successors took (Hoard 3.x's thread caches,
// tcmalloc's thread caches, jemalloc's tcache) — layered over core.Hoard.
//
// Malloc first pops the calling thread's magazine for the size class, with
// no lock at all; free pushes onto it. Overflow flushes half the magazine
// back to Hoard; underflow refills half of it. Each transfer is one of
// Hoard's cached batch calls (core.Hoard.MallocCached and FreeCached), served
// under a single heap-lock acquisition per owner heap.
//
// The magazines are owner-aware (DESIGN.md §11). A free whose superblock
// another heap owns never enters the freeing thread's magazines: it goes to
// a per-thread remote batch, flushed to the owners when full — the paper's
// free-to-owner rule, so passive false sharing stays away. And the block's
// free state in its superblock stays authoritative: a cached block is marked
// free, a pop marks it held, and a free marks it free again, so a double
// free panics at the call even when the first free went no further than a
// cache. Only the thread holding a block touches its state, so each flip is
// a plain load, compare and store; two frees of one block that the program
// does not order are a data race (DESIGN.md §11). Refills and flushes hand
// the state over inside Hoard's cached batch calls, and every cached block
// carries its superblock, so no magazine operation looks a block up.
//
// A hit touches only the calling thread's own memory and the block's free
// state, and runs no locked instruction. Each thread counts its hits per
// class in plain fields that only it writes, and adds them to its published
// books (atomics a sampler may read) at each refill or flush of the class
// and after every publishEvery hits. So Stats, which adds every live
// thread's unpublished counts to the published ones, is exact once every
// counted operation happens-before the call, and running it concurrently
// with a thread's operations is a data race. SampleStats reads the published
// books only: safe under load, never decreasing, and trailing each live
// thread by fewer than publishEvery hits per class and direction. The shared
// counters change only at refills, flushes and bypass operations, which go
// to Hoard anyway.
//
// The cache trades bounded extra memory for its lock-free fast paths. Hoard's
// size classes up to maxCachedSize are cached; larger blocks bypass the
// magazines. Each class's magazine holds at most Capacity blocks and at most
// 32 KiB (classBudget; a class over 16 KiB still keeps MinCapacity blocks),
// and the remote batch flushes at Capacity blocks or 32 KiB, whichever comes
// first. At the default capacity a quiescent thread caches at most 580,568 B
// (ThreadBound; the current fill is CachedBytes). Cached blocks count as in
// use to Hoard's emptiness invariant until a flush returns them.
package tcache

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"unsafe"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// Config parameterizes the cache.
type Config struct {
	// Capacity is the most blocks a thread caches per size class, and the
	// most its remote batch holds (0 selects DefaultCapacity). The 32 KiB
	// classBudget caps the larger classes and the remote batch lower: class
	// c caches at most clamp(classBudget/size(c), MinCapacity, Capacity)
	// blocks. A refill brings, and a flush returns, half a class's cap.
	Capacity int
}

// DefaultCapacity is the magazine capacity a zero Config.Capacity selects.
const DefaultCapacity = 64

// classBudget is the byte budget of one class's magazine and of the remote
// batch, as tcmalloc sizes its per-class batches: a class of size s caches
// at most clamp(classBudget/s, MinCapacity, Capacity) blocks. At 32 KiB the
// classes up to 512 B keep the full 64 blocks and a 4 KiB class holds 8.
// Smaller budgets cut the footprint further but cost throughput in extra
// transfers; DESIGN.md §11 has the sweep that chose it.
const classBudget = 32 << 10

// maxCachedSize is the largest block size the magazines cache: every class
// of Hoard's default table, whose largest is S/2 = 4096 B. Classes above it
// (a larger SuperblockSize) bypass the magazines.
const maxCachedSize = 4096

// Allocator wraps a Hoard allocator with per-thread magazines.
type Allocator struct {
	inner   *core.Hoard
	cfg     Config
	classes *sizeclass.Table // Hoard's size classes
	// caps[c] is class c's magazine capacity in blocks; only the classes
	// up to maxCachedSize have one.
	caps []int

	// bypass keeps the books of the operations the magazines do not serve:
	// oversize, aligned and retired-thread mallocs and frees.
	bypass alloc.Accounting

	mu      sync.Mutex
	threads []*threadState
	retired totals // the books of flushed threads
}

// publishEvery is how many hits in one direction a thread's class may count
// before it publishes them; refills and flushes publish sooner. Between
// publications a live thread's published books trail its true counts by
// fewer than publishEvery mallocs and publishEvery frees per class.
const publishEvery = 32

// counts is a pair of published operation counters. Only the owning thread
// writes them, at publications; SampleStats reads them concurrently.
type counts struct{ mallocs, frees atomic.Int64 }

// booksPad is the padding, in counts, on each side of a thread's books: 128
// bytes, two cache lines, so no other thread's data shares a line with them
// even under adjacent-line prefetch.
const booksPad = 128 / int(unsafe.Sizeof(counts{}))

// newBooks returns a thread's per-class hit counters and its miss counters,
// carved from one padded allocation.
func newBooks(classes int) (hits []counts, misses *counts) {
	b := make([]counts, booksPad+classes+1+booksPad)
	return b[booksPad : booksPad+classes], &b[booksPad+classes]
}

// totals is a sum of thread books.
type totals struct {
	mallocs, frees, live     int64
	mallocMisses, freeMisses int64
}

// add adds ts's published books to t and, when unpublished is set, its
// unpublished hits too. Only the owning thread, or a caller every counted
// operation of ts happens-before, may ask for the unpublished hits.
func (t *totals) add(ts *threadState, classes *sizeclass.Table, unpublished bool) {
	// Misses first: each is published after its hit, so the hits read
	// after them are at least as many.
	t.mallocMisses += ts.misses.mallocs.Load()
	t.freeMisses += ts.misses.frees.Load()
	for c := range ts.hits {
		m, f := ts.hits[c].mallocs.Load(), ts.hits[c].frees.Load()
		if unpublished {
			m += int64(ts.mags[c].mallocs)
			f += int64(ts.mags[c].frees)
		}
		t.mallocs += m
		t.frees += f
		t.live += int64(classes.Size(c)) * (m - f)
	}
}

// magazine is one size class's cache in one thread, and its hits since the
// last publication. Only the owning thread touches it.
type magazine struct {
	ptrs []alloc.Ptr
	// sbs parallels ptrs: sbs[i] is the superblock of ptrs[i].
	sbs []*superblock.Superblock
	// mallocs and frees count the class's hits not yet published to the
	// thread's books.
	mallocs, frees int
}

// threadState holds one thread's magazines and its Hoard handle.
type threadState struct {
	inner *alloc.Thread
	// heap is inner's heap index (core.Hoard.HeapIndex).
	heap int
	mags []magazine // per class

	// remote and remoteSBs are the remote batch: freed blocks whose
	// superblock another heap owns, and their superblocks, waiting to be
	// flushed to their owners.
	remote    []alloc.Ptr
	remoteSBs []*superblock.Superblock
	// remoteBytes is the byte total of the remote batch. Only the owning
	// thread reads or writes it.
	remoteBytes int

	// hits[c] is the published count of the mallocs and frees of class c
	// the magazines and the remote batch served (publish); misses counts
	// those among them that refilled or flushed in the same call, one Add
	// per such call. Only this thread writes them (newBooks).
	hits   []counts
	misses *counts

	// magBytes is the sampler-visible cache-fill gauge. Only the owning
	// thread writes it, and only at transfer boundaries (refill, flush,
	// thread retirement) — a per-op atomic update would tax every cached
	// push and pop — so a concurrent sampler sees a value that lags the
	// true fill by at most half a class's cap per class, plus the remote
	// batch. CachedBytes is the exact quiescent equivalent.
	magBytes atomic.Int64

	// retired is set by FlushThread. A retired thread's handle stays
	// usable — tcmalloc tolerates stray frees after thread exit — but
	// bypasses the magazines entirely, so no block can be stranded in a
	// cache that CachedBytes and CheckIntegrity no longer see. Only the
	// owning thread reads or writes it, like mags.
	retired bool
}

// MinCapacity is the smallest magazine capacity, of Config.Capacity and of
// every class's cap: refills and flushes move half a cap, so anything below
// 2 degenerates.
const MinCapacity = 2

// New wraps inner with thread caches. It panics on a capacity below
// MinCapacity.
func New(inner *core.Hoard, cfg Config) *Allocator {
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Capacity < MinCapacity {
		panic(fmt.Sprintf("tcache: capacity %d too small", cfg.Capacity))
	}
	classes := inner.Classes()
	var caps []int
	for c := 0; c < classes.NumClasses() && classes.Size(c) <= maxCachedSize; c++ {
		caps = append(caps, min(max(classBudget/classes.Size(c), MinCapacity), cfg.Capacity))
	}
	return &Allocator{
		inner:   inner,
		cfg:     cfg,
		classes: classes,
		caps:    caps,
	}
}

// ThreadBound bounds the bytes one quiescent thread can hold cached: every
// magazine full to its cap, plus classBudget, which the remote batch stays
// below. A free can exceed it for the length of the call, by one block
// pushed before its flush.
func (a *Allocator) ThreadBound() int64 {
	var total int64
	for c, n := range a.caps {
		total += int64(n) * int64(a.classes.Size(c))
	}
	return total + classBudget
}

// Describe writes one line on the magazines: the class caps below Capacity,
// the per-thread bound, and the current MagazineBytes.
func (a *Allocator) Describe(w io.Writer) {
	fmt.Fprintf(w, "magazines: %d blocks per class", a.cfg.Capacity)
	sep := "; byte-capped"
	for c, n := range a.caps {
		if n != a.cfg.Capacity {
			fmt.Fprintf(w, "%s %d B:%d", sep, a.classes.Size(c), n)
			sep = ","
		}
	}
	fmt.Fprintf(w, "; per-thread bound %d B; cached %d B\n", a.ThreadBound(), a.MagazineBytes())
}

// Name implements alloc.Allocator. The magazines are part of Hoard's
// protocol, so the stack keeps Hoard's name.
func (a *Allocator) Name() string { return a.inner.Name() }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.inner.Space() }

// Inner returns the wrapped Hoard allocator.
func (a *Allocator) Inner() *core.Hoard { return a.inner }

// NewThread implements alloc.Allocator. Each magazine is sized once, to
// its class's cap + 1 (a free pushes before it flushes), from one backing
// array per thread, so neither a push nor a refill ever grows it.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	inner := a.inner.NewThread(e)
	ts := &threadState{
		inner: inner,
		heap:  a.inner.HeapIndex(inner),
		mags:  make([]magazine, len(a.caps)),
	}
	slots := 0
	for _, n := range a.caps {
		slots += n + 1
	}
	ptrs, sbs := make([]alloc.Ptr, slots), make([]*superblock.Superblock, slots)
	for c, n := range a.caps {
		ts.mags[c].ptrs, ptrs = ptrs[:0:n+1], ptrs[n+1:]
		ts.mags[c].sbs, sbs = sbs[:0:n+1], sbs[n+1:]
	}
	ts.hits, ts.misses = newBooks(len(a.caps))
	a.mu.Lock()
	a.threads = append(a.threads, ts)
	a.mu.Unlock()
	return &alloc.Thread{ID: ts.inner.ID, Env: e, State: ts}
}

// classFor returns the magazine slot for a request size, or ok=false if the
// size bypasses the cache.
func (a *Allocator) classFor(size int) (int, bool) {
	c, ok := a.classes.ClassFor(size)
	return c, ok && c < len(a.caps)
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	ts := t.State.(*threadState)
	class, ok := a.classFor(size)
	if !ok || ts.retired {
		return a.mallocInner(ts, size)
	}
	m := &ts.mags[class]
	n := len(m.ptrs)
	refilled := n == 0
	if refilled {
		a.refill(ts, class)
		n = len(m.ptrs)
	}
	n--
	p, sb := m.ptrs[n], m.sbs[n]
	m.ptrs, m.sbs = m.ptrs[:n], m.sbs[:n]
	sb.ClaimCached(p)
	t.Env.Charge(env.OpMallocFast, 1)
	// Counted after the call's last switch point, so a published malloc
	// has returned.
	m.mallocs++
	if refilled {
		ts.publish(class)
		ts.misses.mallocs.Add(1)
	} else if m.mallocs >= publishEvery {
		ts.publish(class)
	}
	return p
}

// publish adds class's unpublished hits to ts's books. Only the owning
// thread calls it. It stays out of line so the hit path carries no locked
// instruction.
//
//go:noinline
func (ts *threadState) publish(class int) {
	m := &ts.mags[class]
	if m.mallocs != 0 {
		ts.hits[class].mallocs.Add(int64(m.mallocs))
		m.mallocs = 0
	}
	if m.frees != 0 {
		ts.hits[class].frees.Add(int64(m.frees))
		m.frees = 0
	}
}

// publishAll publishes every class's unpublished hits.
func (ts *threadState) publishAll() {
	for class := range ts.mags {
		ts.publish(class)
	}
}

// mallocInner is a bypass malloc, booked on the shared counters.
func (a *Allocator) mallocInner(ts *threadState, size int) alloc.Ptr {
	p := a.inner.Malloc(ts.inner, size)
	a.bypass.OnMalloc(a.inner.UsableSize(p))
	return p
}

// MallocAligned returns a block of at least size bytes whose address is a
// multiple of align from Hoard's aligned path. The block bypasses the
// magazines on the way out; its free is an ordinary one.
func (a *Allocator) MallocAligned(t *alloc.Thread, size, align int) alloc.Ptr {
	ts := t.State.(*threadState)
	p := a.inner.MallocAligned(ts.inner, size, align)
	a.bypass.OnMalloc(a.inner.UsableSize(p))
	return p
}

// refill fills class's empty magazine to half its cap from Hoard under one
// heap-lock acquisition (core.Hoard.MallocCached), which writes the blocks
// straight into the magazine.
func (a *Allocator) refill(ts *threadState, class int) {
	m := &ts.mags[class]
	got := a.inner.MallocCached(ts.inner, a.classes.Size(class), a.caps[class]/2,
		m.ptrs[:cap(m.ptrs)], m.sbs[:cap(m.sbs)])
	m.ptrs, m.sbs = m.ptrs[:got], m.sbs[:got]
	a.publishMagBytes(ts)
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
	for class := range ts.mags {
		total += int64(len(ts.mags[class].ptrs)) * int64(a.classes.Size(class))
	}
	return total + int64(ts.remoteBytes)
}

// Free implements alloc.Allocator. The block lands in the freeing thread's
// magazine if the thread's heap owns it; a block another heap owns goes to
// the remote batch instead.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	ts := t.State.(*threadState)
	sb, usable, local := a.inner.ResolveFree(ts.heap, p)
	if sb == nil || sb.Class() >= len(a.caps) || ts.retired {
		// Large and uncached sizes go straight down.
		a.inner.Free(ts.inner, p)
		a.bypass.OnFree(usable)
		return
	}
	class := sb.Class()
	// Panics on a double free, before anything else changes.
	sb.MarkCached(p)
	t.Env.Charge(env.OpFree, 1)
	// A flush below publishes after its own last switch point, so a
	// published free has returned.
	m := &ts.mags[class]
	m.frees++
	if !local {
		ts.remote = append(ts.remote, p)
		ts.remoteSBs = append(ts.remoteSBs, sb)
		ts.remoteBytes += usable
		if len(ts.remote) >= a.cfg.Capacity || ts.remoteBytes >= classBudget {
			a.flushRemote(ts)
			ts.misses.frees.Add(1)
		} else if m.frees >= publishEvery {
			ts.publish(class)
		}
		return
	}
	m.ptrs = append(m.ptrs, p)
	m.sbs = append(m.sbs, sb)
	if len(m.ptrs) > a.caps[class] {
		a.flush(ts, class)
		ts.misses.frees.Add(1)
	} else if m.frees >= publishEvery {
		ts.publish(class)
	}
}

// flush returns the magazine to half its class's cap with one batch call (a
// single heap-lock acquisition per owner heap), then publishes the class's
// hits.
func (a *Allocator) flush(ts *threadState, class int) {
	a.flushMagazine(ts, class, a.caps[class]/2)
	ts.publish(class)
	a.publishMagBytes(ts)
}

// flushMagazine returns the blocks of class's magazine past keep to Hoard
// (core.Hoard.FreeCached).
func (a *Allocator) flushMagazine(ts *threadState, class, keep int) {
	m := &ts.mags[class]
	a.inner.FreeCached(ts.inner, m.ptrs[keep:], m.sbs[keep:])
	m.ptrs, m.sbs = m.ptrs[:keep], m.sbs[:keep]
}

// flushRemote returns the whole remote batch to the blocks' owners, then
// publishes every class's hits, since the batch mixes classes.
func (a *Allocator) flushRemote(ts *threadState) {
	a.inner.FreeCached(ts.inner, ts.remote, ts.remoteSBs)
	ts.remote, ts.remoteSBs = ts.remote[:0], ts.remoteSBs[:0]
	ts.remoteBytes = 0
	ts.publishAll()
	a.publishMagBytes(ts)
}

// FlushThread returns every magazine and the remote batch of t to Hoard and
// deregisters the thread — what a thread-exit hook does in tcmalloc. The
// handle remains usable afterwards (stray late operations bypass the
// magazines), but the thread no longer contributes to CachedBytes,
// CheckIntegrity, or Threads, and its state can be collected once the
// caller drops the handle. Its books, every hit published, fold into the
// retired totals.
func (a *Allocator) FlushThread(t *alloc.Thread) {
	ts := t.State.(*threadState)
	for class := range ts.mags {
		m := &ts.mags[class]
		if len(m.ptrs) > 0 {
			a.flushMagazine(ts, class, 0)
		}
		m.ptrs, m.sbs = nil, nil
	}
	if len(ts.remote) > 0 {
		a.flushRemote(ts)
	}
	ts.remote, ts.remoteSBs = nil, nil
	ts.publishAll()
	ts.magBytes.Store(0)
	ts.retired = true
	a.mu.Lock()
	for i, s := range a.threads {
		if s == ts {
			a.threads = append(a.threads[:i], a.threads[i+1:]...)
			a.retired.add(ts, a.classes, false)
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
// only, so the sum lags true fill by at most half a class's cap per class,
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
// lock-free operation counts over Hoard's mechanism counters.
// It sums the bypass books, the retired totals and every live thread's
// books, published and unpublished. Mallocs, Frees and LiveBytes are exact
// once every counted operation happens-before the call, live threads
// included; Stats reads memory only the owning threads write, so a call
// concurrent with their operations is a data race. Callers under load use
// SampleStats. PeakLiveBytes is Hoard's: the high-water mark of the bytes
// taken from it, application live plus cached. That is at least the true
// peak, and above it by at most the bytes cached at the peak.
func (a *Allocator) Stats() alloc.Stats { return a.stats(true) }

// SampleStats implements alloc.StatsSampler: Stats from the published books
// only, safe to call while threads allocate. Mallocs and Frees never
// decrease between calls. Each live thread's counts trail its true counts by
// fewer than publishEvery hits per class and direction, so Mallocs and
// Frees each trail by fewer than publishEvery × classes hits per thread and
// LiveBytes by less than publishEvery × the sum of the cached class sizes
// per thread either way. Once every thread has flushed, it equals Stats.
func (a *Allocator) SampleStats() alloc.Stats { return a.stats(false) }

// stats is Stats, with the live threads' unpublished hits when unpublished
// is set.
func (a *Allocator) stats(unpublished bool) alloc.Stats {
	var st alloc.Stats
	a.bypass.Fill(&st)
	a.mu.Lock()
	t := a.retired
	for _, ts := range a.threads {
		t.add(ts, a.classes, unpublished)
	}
	a.mu.Unlock()
	st.Mallocs += t.mallocs
	st.Frees += t.frees
	st.LiveBytes += t.live
	inner := a.inner.Stats()
	st.PeakLiveBytes = inner.PeakLiveBytes
	alloc.MergeAllocatorCounters(&st, inner)
	st.LockFreeMallocs = t.mallocs - t.mallocMisses
	st.LockFreeFrees = t.frees - t.freeMisses
	return st
}

// CheckIntegrity implements alloc.Allocator: magazines must hold distinct,
// correctly-sized blocks, each with its superblock; Hoard's live bytes must
// equal application live bytes plus cached bytes; and Hoard must itself be
// intact with every cached block counted, which proves each one is marked
// free and none is also in the application's hands. Requires quiescence.
func (a *Allocator) CheckIntegrity() error {
	cached, err := a.cachedBlocks()
	if err != nil {
		return err
	}
	var cachedBytes int64
	for _, p := range cached {
		cachedBytes += int64(a.inner.UsableSize(p))
	}
	innerLive, live := a.inner.Stats().LiveBytes, a.Stats().LiveBytes
	if innerLive != live+cachedBytes {
		return fmt.Errorf("tcache: inner live %d != app live %d + cached %d", innerLive, live, cachedBytes)
	}
	return a.inner.CheckIntegrityCached(cached)
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
		if got, ok := superblock.FromPtr(a.inner.Space(), p); !ok || got != sb {
			return fmt.Errorf("tcache: cached block %#x filed under the wrong superblock", uint64(p))
		}
		cached = append(cached, p)
		return nil
	}
	for ti, ts := range a.threads {
		for class, m := range ts.mags {
			want := a.classes.Size(class)
			if len(m.ptrs) > a.caps[class] {
				return nil, fmt.Errorf("tcache: thread %d class %d magazine over its cap of %d: %d", ti, class, a.caps[class], len(m.ptrs))
			}
			if len(m.sbs) != len(m.ptrs) {
				return nil, fmt.Errorf("tcache: thread %d class %d: %d blocks but %d superblocks", ti, class, len(m.ptrs), len(m.sbs))
			}
			for i, p := range m.ptrs {
				if err := add(p, m.sbs[i]); err != nil {
					return nil, err
				}
				if got := a.inner.UsableSize(p); got != want {
					return nil, fmt.Errorf("tcache: cached block %#x usable %d on class-%d magazine (%d)", uint64(p), got, class, want)
				}
			}
		}
		if len(ts.remote) >= a.cfg.Capacity || len(ts.remoteSBs) != len(ts.remote) || ts.remoteBytes >= classBudget {
			return nil, fmt.Errorf("tcache: thread %d remote batch holds %d blocks, %d superblocks and %d B (limits %d blocks, %d B)",
				ti, len(ts.remote), len(ts.remoteSBs), ts.remoteBytes, a.cfg.Capacity, classBudget)
		}
		remoteBytes := 0
		for i, p := range ts.remote {
			if err := add(p, ts.remoteSBs[i]); err != nil {
				return nil, err
			}
			remoteBytes += a.inner.UsableSize(p)
		}
		if remoteBytes != ts.remoteBytes {
			return nil, fmt.Errorf("tcache: thread %d remote batch holds %d B, its count says %d", ti, remoteBytes, ts.remoteBytes)
		}
	}
	return cached, nil
}
