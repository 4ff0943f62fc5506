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
// a plain load, compare and store, compiled inline into Malloc and Free
// (make inline checks that it stays so); two frees of one block that the
// program does not order are a data race (DESIGN.md §11). Refills and
// flushes hand the state over inside the batch calls, and every cached
// block carries its superblock, so no magazine operation looks a block up.
//
// A hit touches only the calling thread's own memory and the block's free
// state, and runs no locked instruction. Each thread counts its hits, and
// the live bytes they moved, in plain fields that only it writes, and adds
// them to its one set of published books (atomics a sampler may read) at
// every refill and flush and once publishEvery hits have gathered, whatever
// their classes and directions. So Stats, which adds every live thread's
// unpublished counts to the published ones, is exact once every counted
// operation happens-before the call, and running it concurrently with a
// thread's operations is a data race. SampleStats reads the published books
// only: safe under load, never decreasing, and trailing each live thread by
// fewer than publishEvery hits in all. The shared counters change only at
// refills, flushes and bypass operations, which take a heap lock anyway.
// The sampler's cache-fill gauge (MagazineBytes) is derived from the books:
// the core's exact held bytes less the sampled live bytes.
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

// warmMaxSize is the largest block size a refill warms: a 64-byte cache
// line's. Warming the first line of larger blocks made a workload's p99
// worse (DESIGN.md §11).
const warmMaxSize = 64

// publishEvery is how many hits, of any classes and in either direction, a
// thread counts before it publishes them; refills and flushes publish
// sooner. Between publications a live thread's published books trail its
// true counts by fewer than publishEvery hits, and its live bytes by less
// than publishEvery × maxCachedSize.
const publishEvery = 32

// classCaps returns each cached class's magazine cap at the given capacity.
func classCaps(classes *sizeclass.Table, capacity int) []int {
	var caps []int
	for c := 0; c < classes.NumClasses() && classes.Size(c) <= maxCachedSize; c++ {
		caps = append(caps, min(max(classBudget/classes.Size(c), MinCapacity), capacity))
	}
	return caps
}

// books is a thread's published counts: the mallocs and frees its
// magazines and remote batch served, the live bytes they moved, and the
// misses among them — the hits that refilled or flushed in the same call,
// one Add per such call. Only the owning thread writes them, at
// publications (publish); SampleStats reads them concurrently. The padding,
// two cache lines on each side, keeps every other thread's data off their
// lines even under adjacent-line prefetch.
type books struct {
	_                        [128]byte
	mallocs, frees, live     atomic.Int64
	mallocMisses, freeMisses atomic.Int64
	_                        [128]byte
}

// totals is a sum of thread books.
type totals struct {
	mallocs, frees, live     int64
	mallocMisses, freeMisses int64
}

// add adds ts's published books to t and, when unpublished is set, its
// unpublished hits too. Only the owning thread, or a caller every counted
// operation of ts happens-before, may ask for the unpublished hits.
func (t *totals) add(ts *ThreadState, unpublished bool) {
	b := ts.books
	// Misses first: each is published after its hit, so the hits read
	// after them are at least as many.
	t.mallocMisses += b.mallocMisses.Load()
	t.freeMisses += b.freeMisses.Load()
	t.mallocs += b.mallocs.Load()
	t.frees += b.frees.Load()
	t.live += b.live.Load()
	if unpublished {
		t.mallocs += int64(ts.mallocs)
		t.frees += int64(ts.frees)
		t.live += int64(ts.live)
	}
}

// magazines is a thread's magazine state, part of its ThreadState. Only the
// owning thread touches it, apart from books.
type magazines struct {
	// mags[c] is class c's magazine: its cached blocks, the most recently
	// freed last. It is nil on the bare core and once FlushThread has
	// retired the thread, whose operations then all bypass the magazines.
	mags [][]superblock.Block

	// remote is the remote batch: freed blocks whose superblock another
	// heap owns, waiting to be flushed to their owners. remoteBytes is its
	// byte total.
	remote      []superblock.Block
	remoteBytes int

	// mallocs and frees count the hits not yet published to books, and
	// live the live bytes they moved.
	mallocs, frees, live int

	books *books
}

// addMagazines gives ts its magazines and books and registers it. Each
// magazine is sized once, to its class's cap + 1 (a free pushes before it
// flushes), from one backing array per thread, so neither a push nor a
// refill ever grows it.
func (h *Hoard) addMagazines(ts *ThreadState) {
	ts.mags = make([][]superblock.Block, len(h.caps))
	slots := 0
	for _, n := range h.caps {
		slots += n + 1
	}
	blocks := make([]superblock.Block, slots)
	for c, n := range h.caps {
		ts.mags[c], blocks = blocks[:0:n+1], blocks[n+1:]
	}
	ts.books = new(books)
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
	n := len(*m)
	refilled := n == 0
	if refilled {
		h.refill(ts, class)
		n = len(*m)
	}
	// The shorter magazine is stored after the claim: stored ahead of the
	// superblock's loads, it made a hit about 5 ns slower on a 2-vCPU Xeon
	// (BenchmarkCachedMallocFree).
	n--
	b := (*m)[n]
	b.SB.ClaimCached(b.P)
	*m = (*m)[:n]
	if ts.sim != nil {
		ts.sim.Charge(env.OpMallocFast, 1)
	}
	// Counted after the call's last switch point, so a published malloc
	// has returned.
	ts.mallocs++
	ts.live += b.SB.BlockSize()
	if refilled {
		ts.publish()
		ts.books.mallocMisses.Add(1)
	} else if ts.mallocs+ts.frees >= publishEvery {
		ts.publish()
	}
	return b.P
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
	size := sb.BlockSize()
	ts.frees++
	ts.live -= size
	if local {
		m := &ts.mags[class]
		*m = append(*m, superblock.Block{P: p, SB: sb})
		if len(*m) > h.caps[class] {
			h.flush(ts, class)
			ts.books.freeMisses.Add(1)
			return
		}
	} else {
		ts.remote = append(ts.remote, superblock.Block{P: p, SB: sb})
		ts.remoteBytes += size
		if len(ts.remote) >= h.cfg.Magazines || ts.remoteBytes >= classBudget {
			h.flushRemote(ts)
			ts.books.freeMisses.Add(1)
			return
		}
	}
	if ts.mallocs+ts.frees >= publishEvery {
		ts.publish()
	}
}

// publish adds ts's unpublished hits and their live bytes to its books.
// Only the owning thread calls it. It stays out of line so the hit path
// carries no locked instruction.
//
//go:noinline
func (ts *ThreadState) publish() {
	b := ts.books
	if ts.mallocs != 0 {
		b.mallocs.Add(int64(ts.mallocs))
		ts.mallocs = 0
	}
	if ts.frees != 0 {
		b.frees.Add(int64(ts.frees))
		ts.frees = 0
	}
	if ts.live != 0 {
		b.live.Add(int64(ts.live))
		ts.live = 0
	}
}

// refill fills class's empty magazine to half its cap under one heap-lock
// acquisition (mallocCached), which writes the blocks straight into the
// magazine. On a real-time env it then warms each block of a class one cache
// line holds (superblock.Warm), so the refill's line fills overlap where the
// program would take them one per malloc (DESIGN.md §11). A simulated env
// charges its own cache model, so it runs no warm and its figures stay the
// same.
func (h *Hoard) refill(ts *ThreadState, class int) {
	m := &ts.mags[class]
	*m = (*m)[:h.mallocCached(ts, class, h.caps[class]/2, (*m)[:cap(*m)])]
	if ts.sim == nil && h.classes.Size(class) <= warmMaxSize {
		superblock.Warm(*m)
	}
}

// cachedBytes is the exact byte total of ts's magazines and remote batch.
// Only the owning thread, or a caller holding a quiescent allocator, may
// call it.
func (h *Hoard) cachedBytes(ts *ThreadState) int64 {
	var total int64
	for class, m := range ts.mags {
		total += int64(len(m)) * int64(h.classes.Size(class))
	}
	return total + int64(ts.remoteBytes)
}

// flush returns the magazine to half its class's cap with one batch call (a
// single heap-lock acquisition per owner heap), then publishes the thread's
// hits.
func (h *Hoard) flush(ts *ThreadState, class int) {
	h.flushMagazine(ts, class, h.caps[class]/2)
	ts.publish()
}

// flushMagazine returns the blocks of class's magazine past keep to the
// heaps (freeCached).
func (h *Hoard) flushMagazine(ts *ThreadState, class, keep int) {
	m := &ts.mags[class]
	h.freeCached(ts, (*m)[keep:])
	*m = (*m)[:keep]
}

// flushRemote returns the whole remote batch to the blocks' owners, then
// publishes the thread's hits.
func (h *Hoard) flushRemote(ts *ThreadState) {
	h.freeCached(ts, ts.remote)
	ts.remote = ts.remote[:0]
	ts.remoteBytes = 0
	ts.publish()
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
	for class, m := range ts.mags {
		if len(m) > 0 {
			h.flushMagazine(ts, class, 0)
		}
	}
	if len(ts.remote) > 0 {
		h.flushRemote(ts)
	}
	ts.publish()
	ts.mags, ts.remote = nil, nil
	h.mu.Lock()
	for i, s := range h.threads {
		if s == ts {
			h.threads = append(h.threads[:i], h.threads[i+1:]...)
			h.retired.add(ts, false)
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
// the capacity, the per-thread bound, and the exact CachedBytes.
func (h *Hoard) describeMagazines(w io.Writer) {
	fmt.Fprintf(w, "magazines: %d blocks per class", h.cfg.Magazines)
	sep := "; byte-capped"
	for c, n := range h.caps {
		if n != h.cfg.Magazines {
			fmt.Fprintf(w, "%s %d B:%d", sep, h.classes.Size(c), n)
			sep = ","
		}
	}
	fmt.Fprintf(w, "; per-thread bound %d B; cached %d B\n", h.ThreadBound(), h.CachedBytes())
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

// MagazineBytes is the metrics-sampler view of cache fill, safe to read
// while threads keep pushing and popping: the core's exact held bytes, the
// application's live bytes plus the cached ones, less SampleStats'
// LiveBytes, clamped at 0. Each open thread's unpublished hits move it off
// CachedBytes by their live-byte change, less than publishEvery ×
// maxCachedSize either way; once every thread has published, it equals
// CachedBytes.
func (h *Hoard) MagazineBytes() int64 {
	return max(h.acct.Live()-h.SampleStats().LiveBytes, 0)
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
// decrease between calls. Each open thread's books trail its true counts by
// at most publishEvery-1 = 31 hits in all, mallocs and frees together, so
// its LiveBytes trails by at most 31 × 4096 = 126,976 B either way. Once
// every thread has flushed, it equals Stats.
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
		t.add(ts, unpublished)
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
	add := func(b superblock.Block) error {
		p, sb := b.P, b.SB
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
			if len(m) > h.caps[class] {
				return nil, 0, fmt.Errorf("hoard: thread %d class %d magazine over its cap of %d: %d", ti, class, h.caps[class], len(m))
			}
			for _, b := range m {
				if err := add(b); err != nil {
					return nil, 0, err
				}
				if got := b.SB.BlockSize(); got != want {
					return nil, 0, fmt.Errorf("hoard: cached block %#x usable %d on class-%d magazine (%d)", uint64(b.P), got, class, want)
				}
			}
		}
		if len(ts.remote) >= h.cfg.Magazines || ts.remoteBytes >= classBudget {
			return nil, 0, fmt.Errorf("hoard: thread %d remote batch holds %d blocks and %d B (limits %d blocks, %d B)",
				ti, len(ts.remote), ts.remoteBytes, h.cfg.Magazines, classBudget)
		}
		remoteBytes := 0
		for _, b := range ts.remote {
			if err := add(b); err != nil {
				return nil, 0, err
			}
			remoteBytes += b.SB.BlockSize()
		}
		if remoteBytes != ts.remoteBytes {
			return nil, 0, fmt.Errorf("hoard: thread %d remote batch holds %d B, its count says %d", ti, remoteBytes, ts.remoteBytes)
		}
	}
	return cached, bytes, nil
}
