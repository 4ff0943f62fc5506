package core

// This file is Hoard's per-thread block caches ("magazines") — the design
// direction Hoard's successors took (Hoard 3.x's thread caches, tcmalloc's
// thread caches, jemalloc's tcache). Config.Magazines turns them on.
//
// Malloc first pops the calling thread's magazine for the size class, with
// no lock at all; free pushes onto it. Overflow flushes half the magazine
// back to the heaps; underflow refills half of it. Each transfer is one of
// the batch calls of batch.go, served under a single heap-lock acquisition
// per owner heap.
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
// the state over inside the batch calls, and every cached block carries its
// superblock, so no magazine operation looks a block up.
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
// counters change only at refills, flushes and bypass operations, which take
// a heap lock anyway.
//
// The cache trades bounded extra memory for its lock-free fast paths. The
// size classes up to maxCachedSize are cached; larger blocks bypass the
// magazines. Each class's magazine holds at most Config.Magazines blocks and
// at most 32 KiB (classBudget; a class over 16 KiB still keeps MinCapacity
// blocks), and the remote batch flushes at Config.Magazines blocks or
// 32 KiB, whichever comes first. At the default capacity a quiescent thread
// caches at most 580,568 B (ThreadBound; the current fill is CachedBytes).
// Cached blocks count as in use to the emptiness invariant until a flush
// returns them.

import (
	"fmt"
	"io"
	"sync/atomic"
	"unsafe"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
)

// DefaultCapacity is the magazine capacity the public Hoard policy runs
// with unless told otherwise.
const DefaultCapacity = 64

// MinCapacity is the smallest magazine capacity, of Config.Magazines and of
// every class's cap: refills and flushes move half a cap, so anything below
// 2 degenerates.
const MinCapacity = 2

// classBudget is the byte budget of one class's magazine and of the remote
// batch, as tcmalloc sizes its per-class batches: a class of size s caches
// at most clamp(classBudget/s, MinCapacity, capacity) blocks. At 32 KiB the
// classes up to 512 B keep the full 64 blocks and a 4 KiB class holds 8.
// Smaller budgets cut the footprint further but cost throughput in extra
// transfers; DESIGN.md §11 has the sweep that chose it.
const classBudget = 32 << 10

// maxCachedSize is the largest block size the magazines cache: every class
// of the default table, whose largest is S/2 = 4096 B. Classes above it (a
// larger SuperblockSize) bypass the magazines.
const maxCachedSize = 4096

// publishEvery is how many hits in one direction a thread's class may count
// before it publishes them; refills and flushes publish sooner. Between
// publications a live thread's published books trail its true counts by
// fewer than publishEvery mallocs and publishEvery frees per class.
const publishEvery = 32

// classCaps returns each cached class's magazine cap at the given capacity.
func classCaps(classes *sizeclass.Table, capacity int) []int {
	var caps []int
	for c := 0; c < classes.NumClasses() && classes.Size(c) <= maxCachedSize; c++ {
		caps = append(caps, min(max(classBudget/classes.Size(c), MinCapacity), capacity))
	}
	return caps
}

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
func (t *totals) add(ts *ThreadState, classes *sizeclass.Table, unpublished bool) {
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

// magazines is a thread's magazine state, part of its ThreadState.
type magazines struct {
	// mags holds one magazine per cached class. It is nil on the bare
	// core and once FlushThread has retired the thread, whose operations
	// then all bypass the magazines.
	mags []magazine

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
}

// addMagazines gives ts its magazines and registers it. Each magazine is
// sized once, to its class's cap + 1 (a free pushes before it flushes),
// from one backing array per thread, so neither a push nor a refill ever
// grows it.
func (h *Hoard) addMagazines(ts *ThreadState) {
	ts.mags = make([]magazine, len(h.caps))
	slots := 0
	for _, n := range h.caps {
		slots += n + 1
	}
	ptrs, sbs := make([]alloc.Ptr, slots), make([]*superblock.Superblock, slots)
	for c, n := range h.caps {
		ts.mags[c].ptrs, ptrs = ptrs[:0:n+1], ptrs[n+1:]
		ts.mags[c].sbs, sbs = sbs[:0:n+1], sbs[n+1:]
	}
	ts.hits, ts.misses = newBooks(len(h.caps))
	h.mu.Lock()
	h.threads = append(h.threads, ts)
	h.mu.Unlock()
}

// Malloc returns a block of at least size bytes: a pop of the thread's
// magazine for the size's class when the magazines serve it, and the
// paper's locked malloc otherwise (mallocLocked).
func (ts *ThreadState) Malloc(size int) alloc.Ptr {
	h := ts.h
	class, ok := h.classes.ClassFor(size)
	if !ok || class >= len(ts.mags) {
		return h.mallocLocked(ts, size)
	}
	m := &ts.mags[class]
	n := len(m.ptrs)
	refilled := n == 0
	if refilled {
		h.refill(ts, class)
		n = len(m.ptrs)
	}
	n--
	p, sb := m.ptrs[n], m.sbs[n]
	m.ptrs, m.sbs = m.ptrs[:n], m.sbs[:n]
	sb.ClaimCached(p)
	if ts.sim != nil {
		ts.sim.Charge(env.OpMallocFast, 1)
	}
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

// Free releases p. A block of a cached class lands in the freeing thread's
// magazine if the thread's heap owns it, and in its remote batch if another
// heap does; any other block takes the paper's locked free (freeSmall), or
// returns to the OS. The one span resolution serves every path.
func (ts *ThreadState) Free(p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	h := ts.h
	sp := h.slots.Lookup(uint64(p))
	if sp == nil {
		sp = h.resolve("free", p)
	}
	sb, ok := sp.Owner.(*superblock.Superblock)
	if !ok {
		h.freeLarge(ts, sp, p)
		return
	}
	class := sb.Class()
	if class >= len(ts.mags) {
		h.freeSmall(ts, sb, p)
		return
	}
	local := sb.OwnerID() == ts.heapIdx
	// Panics on a double free, before anything else changes.
	sb.MarkCached(p)
	if ts.sim != nil {
		ts.sim.Charge(env.OpFree, 1)
	}
	// A flush below publishes after its own last switch point, so a
	// published free has returned.
	m := &ts.mags[class]
	m.frees++
	if !local {
		ts.remote = append(ts.remote, p)
		ts.remoteSBs = append(ts.remoteSBs, sb)
		ts.remoteBytes += sb.BlockSize()
		if len(ts.remote) >= h.cfg.Magazines || ts.remoteBytes >= classBudget {
			h.flushRemote(ts)
			ts.misses.frees.Add(1)
		} else if m.frees >= publishEvery {
			ts.publish(class)
		}
		return
	}
	m.ptrs = append(m.ptrs, p)
	m.sbs = append(m.sbs, sb)
	if len(m.ptrs) > h.caps[class] {
		h.flush(ts, class)
		ts.misses.frees.Add(1)
	} else if m.frees >= publishEvery {
		ts.publish(class)
	}
}

// publish adds class's unpublished hits to ts's books. Only the owning
// thread calls it. It stays out of line so the hit path carries no locked
// instruction.
//
//go:noinline
func (ts *ThreadState) publish(class int) {
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
func (ts *ThreadState) publishAll() {
	for class := range ts.mags {
		ts.publish(class)
	}
}

// refill fills class's empty magazine to half its cap under one heap-lock
// acquisition (mallocCached), which writes the blocks straight into the
// magazine.
func (h *Hoard) refill(ts *ThreadState, class int) {
	m := &ts.mags[class]
	got := h.mallocCached(ts, class, h.caps[class]/2, m.ptrs[:cap(m.ptrs)], m.sbs[:cap(m.sbs)])
	m.ptrs, m.sbs = m.ptrs[:got], m.sbs[:got]
	h.publishMagBytes(ts)
}

// publishMagBytes recomputes ts's cache fill from the magazine lengths and
// the remote batch and publishes it for concurrent samplers. Called only at
// transfer boundaries, which keeps the malloc/free fast paths free of extra
// atomics; between boundaries the published value is stale by whatever the
// fast paths have pushed or popped since.
func (h *Hoard) publishMagBytes(ts *ThreadState) {
	ts.magBytes.Store(h.cachedBytes(ts))
}

// cachedBytes is the exact byte total of ts's magazines and remote batch.
// Only the owning thread, or a caller holding a quiescent allocator, may
// call it.
func (h *Hoard) cachedBytes(ts *ThreadState) int64 {
	var total int64
	for class := range ts.mags {
		total += int64(len(ts.mags[class].ptrs)) * int64(h.classes.Size(class))
	}
	return total + int64(ts.remoteBytes)
}

// flush returns the magazine to half its class's cap with one batch call (a
// single heap-lock acquisition per owner heap), then publishes the class's
// hits.
func (h *Hoard) flush(ts *ThreadState, class int) {
	h.flushMagazine(ts, class, h.caps[class]/2)
	ts.publish(class)
	h.publishMagBytes(ts)
}

// flushMagazine returns the blocks of class's magazine past keep to the
// heaps (freeCached).
func (h *Hoard) flushMagazine(ts *ThreadState, class, keep int) {
	m := &ts.mags[class]
	h.freeCached(ts, m.ptrs[keep:], m.sbs[keep:])
	m.ptrs, m.sbs = m.ptrs[:keep], m.sbs[:keep]
}

// flushRemote returns the whole remote batch to the blocks' owners, then
// publishes every class's hits, since the batch mixes classes.
func (h *Hoard) flushRemote(ts *ThreadState) {
	h.freeCached(ts, ts.remote, ts.remoteSBs)
	ts.remote, ts.remoteSBs = ts.remote[:0], ts.remoteSBs[:0]
	ts.remoteBytes = 0
	ts.publishAll()
	h.publishMagBytes(ts)
}

// FlushThread implements alloc.ThreadFlusher: it returns every magazine and
// the remote batch of t to the heaps and deregisters the thread — what a
// thread-exit hook does in tcmalloc. The handle remains usable afterwards
// (stray late operations bypass the magazines), but the thread no longer
// contributes to CachedBytes, CheckIntegrity, or Threads, and its state can
// be collected once the caller drops the handle. Its books, every hit
// published, fold into the retired totals. On the bare core it does
// nothing.
func (h *Hoard) FlushThread(t *alloc.Thread) {
	ts := t.State.(*ThreadState)
	for class := range ts.mags {
		if len(ts.mags[class].ptrs) > 0 {
			h.flushMagazine(ts, class, 0)
		}
	}
	if len(ts.remote) > 0 {
		h.flushRemote(ts)
	}
	ts.publishAll()
	ts.mags, ts.remote, ts.remoteSBs = nil, nil, nil
	ts.magBytes.Store(0)
	h.mu.Lock()
	for i, s := range h.threads {
		if s == ts {
			h.threads = append(h.threads[:i], h.threads[i+1:]...)
			h.retired.add(ts, h.classes, false)
			break
		}
	}
	h.mu.Unlock()
}

// ThreadBound bounds the bytes one quiescent thread can hold cached: every
// magazine full to its cap, plus classBudget, which the remote batch stays
// below. A free can exceed it for the length of the call, by one block
// pushed before its flush.
func (h *Hoard) ThreadBound() int64 {
	var total int64
	for c, n := range h.caps {
		total += int64(n) * int64(h.classes.Size(c))
	}
	return total + classBudget
}

// describeMagazines writes one line on the magazines: the class caps below
// the capacity, the per-thread bound, and the current MagazineBytes.
func (h *Hoard) describeMagazines(w io.Writer) {
	fmt.Fprintf(w, "magazines: %d blocks per class", h.cfg.Magazines)
	sep := "; byte-capped"
	for c, n := range h.caps {
		if n != h.cfg.Magazines {
			fmt.Fprintf(w, "%s %d B:%d", sep, h.classes.Size(c), n)
			sep = ","
		}
	}
	fmt.Fprintf(w, "; per-thread bound %d B; cached %d B\n", h.ThreadBound(), h.MagazineBytes())
}

// CachedBytes reports the bytes currently sitting in magazines and remote
// batches (requires quiescence).
func (h *Hoard) CachedBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total int64
	for _, ts := range h.threads {
		total += h.cachedBytes(ts)
	}
	return total
}

// MagazineBytes is the metrics-sampler view of cache fill: a sum of every
// registered thread's cache-byte gauge, safe to read while owner threads
// keep pushing and popping. Each gauge is published at transfer boundaries
// only, so the sum lags true fill by at most half a class's cap per class,
// plus the remote batch, per thread; CachedBytes is the exact (quiescent)
// equivalent.
func (h *Hoard) MagazineBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total int64
	for _, ts := range h.threads {
		total += ts.magBytes.Load()
	}
	return total
}

// Stats implements alloc.Allocator. On the bare core it is the core's own
// books (heldStats). Under the magazines it reports application-level
// operation and live-byte counters (cached blocks count as free) and the
// magazines' lock-free operation counts over the core's mechanism
// counters. It sums the bypass books, the retired totals and every live
// thread's books, published and unpublished. Mallocs, Frees and LiveBytes
// are exact once every counted operation happens-before the call, live
// threads included; Stats reads memory only the owning threads write, so a
// call concurrent with their operations is a data race. Callers under load
// use SampleStats. PeakLiveBytes is the core's: the high-water mark of the
// bytes it handed out, application live plus cached. That is at least the
// true peak, and above it by at most the bytes cached at the peak.
func (h *Hoard) Stats() alloc.Stats { return h.stats(true) }

// SampleStats implements alloc.StatsSampler: Stats from the published books
// only, safe to call while threads allocate. Mallocs and Frees never
// decrease between calls. Each live thread's counts trail its true counts by
// fewer than publishEvery hits per class and direction, so Mallocs and
// Frees each trail by fewer than publishEvery × classes hits per thread and
// LiveBytes by less than publishEvery × the sum of the cached class sizes
// per thread either way. Once every thread has flushed, it equals Stats.
func (h *Hoard) SampleStats() alloc.Stats { return h.stats(false) }

// stats is Stats, with the live threads' unpublished hits when unpublished
// is set.
func (h *Hoard) stats(unpublished bool) alloc.Stats {
	st := h.heldStats()
	if h.caps == nil {
		return st
	}
	var bypass alloc.Stats
	h.bypass.Fill(&bypass)
	h.mu.Lock()
	t := h.retired
	for _, ts := range h.threads {
		t.add(ts, h.classes, unpublished)
	}
	h.mu.Unlock()
	st.Mallocs = bypass.Mallocs + t.mallocs
	st.Frees = bypass.Frees + t.frees
	st.LiveBytes = bypass.LiveBytes + t.live
	st.LockFreeMallocs = t.mallocs - t.mallocMisses
	st.LockFreeFrees = t.frees - t.freeMisses
	return st
}

// cachedBlocks checks the shape of every registered thread's magazines and
// remote batch, and that each cached block is a block of its superblock
// marked free. It returns the count of cached blocks per superblock and
// their byte total. Requires quiescence.
func (h *Hoard) cachedBlocks() (map[*superblock.Superblock]int, int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[alloc.Ptr]bool)
	cached := make(map[*superblock.Superblock]int)
	var bytes int64
	add := func(p alloc.Ptr, sb *superblock.Superblock) error {
		if seen[p] {
			return fmt.Errorf("hoard: block %#x cached twice", uint64(p))
		}
		seen[p] = true
		if got, ok := superblock.FromPtr(h.space, p); !ok || got != sb || !sb.Contains(p) {
			return fmt.Errorf("hoard: cached block %#x filed under the wrong superblock", uint64(p))
		}
		if !sb.IsFreeBlock(p) {
			return fmt.Errorf("hoard: cached block %#x is not marked free", uint64(p))
		}
		cached[sb]++
		bytes += int64(sb.BlockSize())
		return nil
	}
	for ti, ts := range h.threads {
		for class, m := range ts.mags {
			want := h.classes.Size(class)
			if len(m.ptrs) > h.caps[class] {
				return nil, 0, fmt.Errorf("hoard: thread %d class %d magazine over its cap of %d: %d", ti, class, h.caps[class], len(m.ptrs))
			}
			if len(m.sbs) != len(m.ptrs) {
				return nil, 0, fmt.Errorf("hoard: thread %d class %d: %d blocks but %d superblocks", ti, class, len(m.ptrs), len(m.sbs))
			}
			for i, p := range m.ptrs {
				if err := add(p, m.sbs[i]); err != nil {
					return nil, 0, err
				}
				if got := m.sbs[i].BlockSize(); got != want {
					return nil, 0, fmt.Errorf("hoard: cached block %#x usable %d on class-%d magazine (%d)", uint64(p), got, class, want)
				}
			}
		}
		if len(ts.remote) >= h.cfg.Magazines || len(ts.remoteSBs) != len(ts.remote) || ts.remoteBytes >= classBudget {
			return nil, 0, fmt.Errorf("hoard: thread %d remote batch holds %d blocks, %d superblocks and %d B (limits %d blocks, %d B)",
				ti, len(ts.remote), len(ts.remoteSBs), ts.remoteBytes, h.cfg.Magazines, classBudget)
		}
		remoteBytes := 0
		for i, p := range ts.remote {
			if err := add(p, ts.remoteSBs[i]); err != nil {
				return nil, 0, err
			}
			remoteBytes += ts.remoteSBs[i].BlockSize()
		}
		if remoteBytes != ts.remoteBytes {
			return nil, 0, fmt.Errorf("hoard: thread %d remote batch holds %d B, its count says %d", ti, remoteBytes, ts.remoteBytes)
		}
	}
	return cached, bytes, nil
}
