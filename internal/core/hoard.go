// Package core implements the Hoard allocator — the primary contribution of
// Berger, McKinley, Blumofe & Wilson, "Hoard: A Scalable Memory Allocator
// for Multithreaded Applications" (ASPLOS 2000).
//
// Hoard combines one global heap with N per-processor heaps. Threads hash to
// a per-processor heap; memory is managed in superblocks of S bytes holding
// blocks of one size class; frees return blocks to the superblock's owning
// heap (not the freeing thread), and the emptiness invariant
//
//	u(i) >= a(i) - K*S  OR  u(i) >= (1-f)*a(i)
//
// is restored after every free by moving an at-least-f-empty superblock to
// the global heap, where other processors' heaps can reuse it. Together
// these yield O(1) worst-case blowup, avoidance of allocator-induced false
// sharing, and low lock contention (each malloc/free takes one per-processor
// heap lock in the common case).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// Config parameterizes a Hoard allocator. The zero value selects the
// paper implementation's parameters via Default, the ones the public Hoard
// policy always runs; the experiments' ablations vary them here. The size
// classes are always the paper's (b = 1.2, sizeclass.DefaultBase).
type Config struct {
	// SuperblockSize is S in bytes; must be a power of two and a multiple
	// of the page size. Default 8192.
	SuperblockSize int
	// EmptyFraction is f, the fraction of a heap that may be empty before
	// frees start moving superblocks to the global heap. Default 1/4.
	EmptyFraction float64
	// K is the emptiness invariant's slack, in superblocks. The zero
	// value selects the default of 1; use KNone for a literal zero.
	//
	// With K = 0 a heap must shed superblocks all the way to u = a, so a
	// free-heavy phase evicts superblocks that still hold up to f*S live
	// bytes and their remaining frees serialize on the global heap's
	// lock (measurably so — see the ablate-k experiment). One superblock
	// of slack lets eviction almost always pick a completely empty
	// superblock while preserving the paper's O(1) blowup bound, whose
	// constant already accounts for K.
	K int
	// Heaps is the number of per-processor heaps (excluding the global
	// heap). The paper uses one (implementation: two) per processor.
	// Default 16.
	Heaps int
	// HashThreads scrambles thread ids before heap assignment,
	// reproducing the collision behavior of arbitrary pthread ids (the
	// reason the released Hoard used 2P heaps). Off by default: the
	// benchmarks' sequential ids then map round-robin.
	HashThreads bool
	// Backend selects the memory behind the vm space: "sim" (the
	// deterministic simulated memory) or "arena" (mmap'd regions with real
	// madvise decommit; Linux amd64/arm64 only). Both resolve superblocks
	// through the same slot table. Empty defers to the HOARDGO_BACKEND
	// environment variable, then defaults to "sim". A requested arena that
	// cannot be created degrades to the simulated memory — see
	// Stats.BackendFallbacks and BackendFallbackReason.
	Backend string
	// Magazines turns on the per-thread magazines (magazine.go) and sets
	// their capacity: the most blocks a thread caches per size class, and
	// the most its remote batch holds. Zero leaves them off: the bare
	// paper core, every malloc and free under a heap lock. Nonzero values
	// must be at least MinCapacity.
	Magazines int
}

// KNone requests a literal K of zero (no slack) in Config.K.
const KNone = -1

// Default is the paper implementation's configuration.
var Default = Config{
	SuperblockSize: superblock.DefaultSize,
	EmptyFraction:  0.25,
	K:              1,
	Heaps:          16,
}

func (c Config) withDefaults() Config {
	d := Default
	if c.SuperblockSize == 0 {
		c.SuperblockSize = d.SuperblockSize
	}
	if c.EmptyFraction == 0 {
		c.EmptyFraction = d.EmptyFraction
	}
	switch {
	case c.K == 0:
		c.K = d.K
	case c.K == KNone:
		c.K = 0
	}
	if c.Heaps == 0 {
		c.Heaps = d.Heaps
	}
	return c
}

func (c Config) validate() error {
	if c.SuperblockSize < vm.PageSize || c.SuperblockSize&(c.SuperblockSize-1) != 0 {
		return fmt.Errorf("hoard: superblock size %d must be a power-of-two multiple of the %d-byte page", c.SuperblockSize, vm.PageSize)
	}
	if c.EmptyFraction <= 0 || c.EmptyFraction >= 1 {
		return fmt.Errorf("hoard: empty fraction %v out of (0,1)", c.EmptyFraction)
	}
	if c.K < 0 {
		return fmt.Errorf("hoard: negative K %d", c.K)
	}
	if c.Heaps < 1 {
		return fmt.Errorf("hoard: need at least one per-processor heap, got %d", c.Heaps)
	}
	switch c.Backend {
	case "", "sim", "arena":
	default:
		return fmt.Errorf("hoard: unknown backend %q (want \"sim\" or \"arena\")", c.Backend)
	}
	if c.Magazines != 0 && c.Magazines < MinCapacity {
		return fmt.Errorf("hoard: magazine capacity %d below the minimum of %d", c.Magazines, MinCapacity)
	}
	return nil
}

// Hoard is the allocator. All methods are safe for concurrent use by
// distinct Threads.
type Hoard struct {
	cfg   Config
	space vm.Backend
	// slots is a copy of space's slot table, which resolves a superblock
	// pointer by address arithmetic with no call.
	slots   vm.Slots
	classes *sizeclass.Table
	// heaps[0] is the global heap; heaps[1..cfg.Heaps] are per-processor.
	heaps []*heap.Heap
	// caps[c] is class c's magazine capacity in blocks; only the classes
	// up to maxCachedSize have one. Nil when the magazines are off.
	caps []int

	// backendFallback records why a requested arena backend degraded to
	// the simulated space ("" when the requested backend was created).
	// Set once in New, before the allocator is shared.
	backendFallback string

	// Every thread writes the counters below, and every operation reads
	// the fields above; the pad keeps those writes off the read-mostly
	// cache lines.
	_ [64]byte

	// acct keeps the books of the blocks Hoard has handed out, large
	// objects included: one update per operation, per refill and per
	// owner group of a flush. Under the magazines it changes only at
	// transfers and bypass operations, and its peak is the exact
	// high-water mark of the bytes the caches and the application hold.
	acct alloc.Accounting

	sbMoves       atomic.Int64
	movedLive     atomic.Int64
	globalHits    atomic.Int64
	osReserves    atomic.Int64
	remote        atomic.Int64
	batchRefills  atomic.Int64
	batchFlushes  atomic.Int64
	batchedBlocks atomic.Int64
	scavPasses    atomic.Int64
	scavBytes     atomic.Int64
	localReuses   atomic.Int64

	// The magazines' books (magazine.go). bypass keeps the books of the
	// operations the magazines do not serve: oversize, aligned and
	// retired-thread mallocs and frees.
	bypass  alloc.Accounting
	mu      sync.Mutex
	threads []*ThreadState // the threads with magazines, not yet flushed
	retired totals         // the books of flushed threads
}

// ThreadState is one thread's state: the heap it allocates from and, when
// the magazines are on, its magazines, its remote batch and its books
// (magazine.go). Only its thread uses it.
type ThreadState struct {
	h *Hoard
	e env.Env
	// sim is e when it charges costs (a simulated thread), and nil when e
	// is a real-time environment, whose charges are no-ops. The magazine
	// hit paths charge through it only.
	sim     env.Env
	heapIdx int
	magazines
}

// New creates a Hoard allocator over its own address space, on the memory
// cfg.Backend selects (the simulated memory or the arena), with locks
// created from lf. It panics on an invalid configuration.
func New(cfg Config, lf env.LockFactory) *Hoard {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	space, fallback := openBackend(cfg)
	h := &Hoard{
		cfg:     cfg,
		space:   space,
		slots:   space.Slots,
		classes: sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, cfg.SuperblockSize/2),
	}
	h.backendFallback = fallback
	if cfg.Magazines != 0 {
		h.caps = classCaps(h.classes, cfg.Magazines)
	}
	h.heaps = make([]*heap.Heap, cfg.Heaps+1)
	for i := range h.heaps {
		name := fmt.Sprintf("hoard.heap%d", i)
		h.heaps[i] = heap.New(i, cfg.SuperblockSize, cfg.EmptyFraction, cfg.K,
			h.classes.NumClasses(), lf.NewLock(name))
	}
	return h
}

// Name implements alloc.Allocator.
func (h *Hoard) Name() string { return "hoard" }

// Space implements alloc.Allocator.
func (h *Hoard) Space() vm.Backend { return h.space }

// Backend returns the name of the vm backend actually in use ("sim" or
// "arena") — after any fallback, so it can differ from Config.Backend.
func (h *Hoard) Backend() string { return h.space.Name() }

// BackendFallbackReason returns why a requested arena backend degraded to
// the simulated space, or "" if the requested backend was created.
func (h *Hoard) BackendFallbackReason() string { return h.backendFallback }

// Classes exposes the size-class table (used by tests and benchmarks).
func (h *Hoard) Classes() *sizeclass.Table { return h.classes }

// NewThread registers a worker. The thread's heap is chosen by hashing its
// environment thread id over the per-processor heaps, as in the paper. The
// handle's State is its *ThreadState.
func (h *Hoard) NewThread(e env.Env) *alloc.Thread {
	id := e.ThreadID()
	ts := &ThreadState{h: h, e: e, heapIdx: 1 + hashTID(id, h.cfg.HashThreads)%h.cfg.Heaps}
	if env.Simulated(e) {
		ts.sim = e
	}
	if h.caps != nil {
		h.addMagazines(ts)
	}
	return &alloc.Thread{ID: id, Env: e, State: ts}
}

// hashTID maps a thread id to a heap slot. Small sequential ids (the common
// case in both real and simulated runs) spread perfectly unless scrambling
// is requested; the multiplier scrambles arbitrary (or scrambled) ids.
func hashTID(id int, scramble bool) int {
	if !scramble && id >= 0 && id < 1<<16 {
		return id
	}
	return int(uint32(id)*2654435761>>16) & 0x7fffffff
}

// Malloc implements alloc.Allocator (ThreadState.Malloc).
func (h *Hoard) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	return t.State.(*ThreadState).Malloc(size)
}

// mallocLocked is the paper's malloc: one block from ts's heap, under that
// heap's lock, or a large object from the OS. It serves every malloc of the
// bare core, and under the magazines the ones they do not serve, which it
// books as bypass operations.
func (h *Hoard) mallocLocked(ts *ThreadState, size int) alloc.Ptr {
	e := ts.e
	class, ok := h.classes.ClassFor(size)
	if !ok {
		h.osReserves.Add(1)
		p := alloc.MallocLarge(h.space, &h.acct, e, size)
		if h.caps != nil {
			h.bypass.OnMalloc(h.UsableSize(p))
		}
		return p
	}
	blockSize := h.classes.Size(class)
	var b [1]superblock.Block
	h.allocRun(ts, class, blockSize, b[:])
	b[0].SB.ClaimCached(b[0].P)
	// The books follow the charge, a switch point of the simulator, or the
	// simulated peaks move.
	e.Charge(env.OpMallocFast, 1)
	h.acct.OnMalloc(blockSize)
	if h.caps != nil {
		h.bypass.OnMalloc(blockSize)
	}
	return b[0].P
}

// allocRun fills out with blocks of class under one acquisition of ts's heap
// lock (allocLocked). The blocks stay marked free; the caller claims each
// one it hands to the application.
func (h *Hoard) allocRun(ts *ThreadState, class, blockSize int, out []superblock.Block) {
	hp := h.heaps[ts.heapIdx]
	hp.Lock.Lock(ts.e)
	h.allocLocked(ts.e, hp, class, blockSize, out)
	hp.Lock.Unlock(ts.e)
}

// allocLocked fills out with blocks of class from hp, whose lock the caller
// holds, a superblock's run at a time (heap.AllocRun): the same blocks, in
// the same order, as len(out) single pops, all still marked free.
//
// When hp has no free block of the class, the slow path first recycles one
// of hp's own empty superblocks into the class: it stays off the global
// lock and, because a(i) does not change, triggers no eviction (where a
// global take grows a(i) and routinely starts an evict/take cycle).
// Otherwise it pulls a superblock from the global heap, or the OS.
func (h *Hoard) allocLocked(e env.Env, hp *heap.Heap, class, blockSize int, out []superblock.Block) {
	for i := 0; i < len(out); {
		if n := hp.AllocRun(e, class, out[i:]); n > 0 {
			i += n
			continue
		}
		e.Charge(env.OpMallocSlow, 1)
		if hp.ReuseEmpty(e, class, blockSize) != nil {
			h.localReuses.Add(1)
			continue
		}
		g := h.heaps[0]
		g.Lock.Lock(e)
		sb := g.TakeSuper(e, class, blockSize)
		if sb != nil {
			// Insert (which transfers ownership) must happen before the
			// global lock is released: a racing free that read the old
			// owner id must block until the new owner is visible, or its
			// ownership re-check would pass against a heap that no longer
			// holds the superblock.
			hp.Insert(sb)
			h.globalHits.Add(1)
			e.Charge(env.OpSuperblockMove, 1)
		}
		g.Lock.Unlock(e)
		if sb == nil {
			e.Charge(env.OpOSAlloc, 1)
			hp.Insert(superblock.New(h.space, h.cfg.SuperblockSize, class, blockSize))
			h.osReserves.Add(1)
		}
	}
}

// resolve is the one pointer→span resolution of an operation: the space's
// Lookup, which is the slot table's address arithmetic for a superblock
// and a page-table walk for a large object. Every consumer passes its
// result down instead of re-resolving. BenchmarkResolveFree pins its cost
// per backend. The hit paths try h.slots themselves first, since a call
// costs more than the arithmetic.
func (h *Hoard) resolve(op string, p alloc.Ptr) *vm.Span {
	sp := h.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("hoard: %s of unknown pointer %#x", op, uint64(p)))
	}
	return sp
}

// largeSize returns the size of the large object a resolved span holds,
// and panics if it holds none.
func largeSize(op string, p alloc.Ptr, sp *vm.Span) int {
	lo, ok := sp.Owner.(*alloc.LargeObj)
	if !ok {
		panic(fmt.Sprintf("hoard: %s of foreign pointer %#x", op, uint64(p)))
	}
	return lo.Size
}

// Free implements alloc.Allocator (ThreadState.Free).
func (h *Hoard) Free(t *alloc.Thread, p alloc.Ptr) { t.State.(*ThreadState).Free(p) }

// freeLarge returns a resolved large object to the OS, booked as a bypass
// operation under the magazines.
func (h *Hoard) freeLarge(ts *ThreadState, sp *vm.Span, p alloc.Ptr) {
	size := largeSize("free", p, sp)
	alloc.FreeLarge(h.space, &h.acct, ts.e, "hoard", sp, p)
	if h.caps != nil {
		h.bypass.OnFree(size)
	}
}

// freeSmall is the paper's free of one block, to any owner: mark the block
// free, which panics on misuse before any lock is taken, then free it as a
// flush of one (freeOwned). Under the magazines it serves the frees they do
// not, which it books as bypass operations.
func (h *Hoard) freeSmall(ts *ThreadState, sb *superblock.Superblock, p alloc.Ptr) {
	// Read the block size while our still-live block pins the superblock's
	// format: once the free retires the block and the lock drops, the
	// superblock may empty and be reformatted to another class.
	blockSize := sb.BlockSize()
	sb.MarkCached(p)
	b := [1]superblock.Block{{P: p, SB: sb}}
	h.freeOwned(ts, b[:])
	if h.caps != nil {
		h.bypass.OnFree(blockSize)
	}
}

// restoreInvariant moves one at-least-f-empty superblock from hp (whose lock
// the caller holds) to the global heap, as the paper's free path prescribes,
// and reports whether a victim was found. Each freed block pays for at most
// one move, on a single free and on a flush alike. One move need not restore
// the invariant: a malloc that takes a superblock raises a(i) by S but u(i)
// only by the blocks it takes, so a heap can enter a free already below it
// (DESIGN.md §1).
func (h *Hoard) restoreInvariant(e env.Env, hp *heap.Heap) bool {
	victim := hp.FindEvictable(e)
	if victim == nil {
		return false
	}
	hp.Remove(victim)
	e.Charge(env.OpSuperblockMove, 1)
	h.sbMoves.Add(1)
	h.movedLive.Add(int64(victim.InUse()))
	g := h.heaps[0]
	g.Lock.Lock(e)
	g.Insert(victim)
	g.Lock.Unlock(e)
	return true
}

// UsableSize implements alloc.Allocator.
func (h *Hoard) UsableSize(p alloc.Ptr) int {
	sp := h.slots.Lookup(uint64(p))
	if sp == nil {
		sp = h.resolve("UsableSize", p)
	}
	if sb, ok := sp.Owner.(*superblock.Superblock); ok {
		return sb.BlockSize()
	}
	return largeSize("UsableSize", p, sp)
}

// Bytes implements alloc.Allocator. One resolution serves both the
// usable-size validation and the byte view.
func (h *Hoard) Bytes(p alloc.Ptr, n int) []byte {
	sp := h.slots.Lookup(uint64(p))
	if sp == nil {
		sp = h.resolve("Bytes", p)
	}
	usable := 0
	if sb, ok := sp.Owner.(*superblock.Superblock); ok {
		usable = sb.BlockSize()
	} else {
		usable = largeSize("Bytes", p, sp)
	}
	if n > usable {
		panic(fmt.Sprintf("hoard: Bytes(%#x, %d) exceeds usable size %d", uint64(p), n, usable))
	}
	return sp.Bytes(int(uint64(p)-sp.Base), n)
}

// heldStats is the core's books of the blocks it has handed out, to the
// application and to the magazines, with the mechanism counters.
func (h *Hoard) heldStats() alloc.Stats {
	var st alloc.Stats
	h.acct.Fill(&st)
	st.SuperblockMoves = h.sbMoves.Load()
	st.MovedLiveBlocks = h.movedLive.Load()
	st.GlobalHeapHits = h.globalHits.Load()
	st.OSReserves = h.osReserves.Load()
	st.RemoteFrees = h.remote.Load()
	st.BatchRefills = h.batchRefills.Load()
	st.BatchFlushes = h.batchFlushes.Load()
	st.BatchedBlocks = h.batchedBlocks.Load()
	st.ScavengePasses = h.scavPasses.Load()
	st.ScavengedBytes = h.scavBytes.Load()
	st.LocalReuses = h.localReuses.Load()
	if h.backendFallback != "" {
		st.BackendFallbacks = 1
	}
	return st
}

// HeapSnapshot reports (u, a, superblocks) for heap id; used by tests and
// the blowup experiments. The caller must be quiescent.
func (h *Hoard) HeapSnapshot(id int) (u, a int64, superblocks int) {
	hp := h.heaps[id]
	return hp.U(), hp.A(), hp.Superblocks()
}

// NumHeaps returns the number of heaps including the global heap.
func (h *Hoard) NumHeaps() int { return len(h.heaps) }

// CheckIntegrity implements alloc.Allocator. The allocator must be
// quiescent. Under the magazines every cached block must be a distinct
// block marked free, filed under its superblock, on a magazine within its
// cap or in a remote batch within its limits; the core's live bytes must be
// the application's plus the cached ones; and each superblock's free blocks
// must be exactly its listed, uncarved and cached ones, which proves no
// block is both cached and in the application's hands.
func (h *Hoard) CheckIntegrity() error {
	cached, cachedBytes, err := h.cachedBlocks()
	if err != nil {
		return err
	}
	if h.caps != nil {
		if held, live := h.acct.Live(), h.Stats().LiveBytes; held != live+cachedBytes {
			return fmt.Errorf("hoard: held live %d != app live %d + cached %d", held, live, cachedBytes)
		}
	}
	return h.checkIntegrity(cached)
}

func (h *Hoard) checkIntegrity(cached map[*superblock.Superblock]int) error {
	var u int64
	for _, hp := range h.heaps {
		if err := hp.CheckIntegrityCached(cached); err != nil {
			return err
		}
		u += hp.U()
		if err := hp.CheckEmptiness(&env.RealEnv{}); err != nil {
			return err
		}
	}
	// Heap-resident in-use bytes plus large objects must equal the live
	// gauge. Large objects are exactly the reserved bytes not owned by
	// heaps — reserved, not committed, because a scavenged superblock still
	// counts S toward its heap's a while its committed bytes are gone.
	var heapBytes int64
	for _, hp := range h.heaps {
		heapBytes += hp.A()
	}
	large := h.space.Reserved() - heapBytes
	if u+large != h.acct.Live() {
		return fmt.Errorf("hoard: live accounting %d != heaps %d + large %d",
			h.acct.Live(), u, large)
	}
	return nil
}
