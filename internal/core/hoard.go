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
	"sync/atomic"
	"time"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// Config parameterizes a Hoard allocator. The zero value selects the
// paper implementation's parameters via Default.
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
	// SizeClassBase is b, the growth factor between size classes.
	// Default 1.2.
	SizeClassBase float64
	// Heaps is the number of per-processor heaps (excluding the global
	// heap). The paper uses one (implementation: two) per processor.
	// Default 16.
	Heaps int
	// HashThreads scrambles thread ids before heap assignment,
	// reproducing the collision behavior of arbitrary pthread ids (the
	// reason the released Hoard used 2P heaps). Off by default: the
	// benchmarks' sequential ids then map round-robin.
	HashThreads bool
	// Backend selects the vm substrate: "sim" (the deterministic
	// simulated space) or "arena" (one large mmap'd reservation with real
	// madvise decommit; Linux amd64/arm64 only). Empty defers to the
	// HOARDGO_BACKEND environment variable, then defaults to "sim". A
	// requested arena that cannot be created degrades to the simulated
	// space — see Stats.BackendFallbacks and BackendFallbackReason.
	Backend string
}

// KNone requests a literal K of zero (no slack) in Config.K.
const KNone = -1

// Default is the paper implementation's configuration.
var Default = Config{
	SuperblockSize: superblock.DefaultSize,
	EmptyFraction:  0.25,
	K:              1,
	SizeClassBase:  sizeclass.DefaultBase,
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
	if c.SizeClassBase == 0 {
		c.SizeClassBase = d.SizeClassBase
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

// Validate reports the error New would panic with on c, after filling its
// zero fields with the defaults; nil means New accepts it.
func (c Config) Validate() error { return c.withDefaults().validate() }

func (c Config) validate() error {
	if c.SuperblockSize < vm.PageSize || c.SuperblockSize&(c.SuperblockSize-1) != 0 {
		return fmt.Errorf("hoard: superblock size %d must be a power-of-two multiple of the %d-byte page", c.SuperblockSize, vm.PageSize)
	}
	if err := sizeclass.Check(c.SizeClassBase, sizeclass.Quantum, c.SuperblockSize/2); err != nil {
		return fmt.Errorf("hoard: size classes: %w", err)
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
	return nil
}

// largeObj is the span tag for objects larger than S/2, which bypass
// superblocks and go straight to the (simulated) OS, as in the paper.
type largeObj struct {
	size int // usable bytes (page-rounded reservation length)
}

// Hoard is the allocator. All methods are safe for concurrent use by
// distinct Threads.
type Hoard struct {
	cfg     Config
	space   vm.Backend
	classes *sizeclass.Table
	// heaps[0] is the global heap; heaps[1..cfg.Heaps] are per-processor.
	heaps []*heap.Heap

	// acct is sharded by heap index (shard 0 doubles as the large-object
	// shard) so concurrent threads don't bounce one set of counter cache
	// lines on every operation. Frees are recorded against the owning
	// heap's shard — the shard that recorded the malloc except for blocks
	// carried along by an evicted superblock — keeping per-shard peaks
	// tight.
	acct *alloc.ShardedAccounting

	// backendFallback records why a requested arena backend degraded to
	// the simulated space ("" when the requested backend was created).
	// Set once in New, before the allocator is shared.
	backendFallback string

	// clock stamps superblocks parked on the global heap, feeding the
	// scavenger's cold-age filter. Wall clock by default; SetClock installs
	// a deterministic source (see scavenge.go).
	clock func() int64

	// Every thread writes the counters below, and every operation reads
	// the fields above; the pad keeps those writes off the read-mostly
	// cache lines.
	_ [64]byte

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
}

// threadState is the per-thread state: the index of the heap the thread
// allocates from.
type threadState struct {
	heapIdx int
}

// New creates a Hoard allocator over its own simulated address space, with
// locks created from lf. It panics on an invalid configuration.
func New(cfg Config, lf env.LockFactory) *Hoard {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	space, fallback := openBackend(cfg)
	h := &Hoard{
		cfg:     cfg,
		space:   space,
		classes: sizeclass.New(cfg.SizeClassBase, sizeclass.Quantum, cfg.SuperblockSize/2),
		acct:    alloc.NewSharded(cfg.Heaps + 1),
		clock:   func() int64 { return time.Now().UnixNano() },
	}
	h.backendFallback = fallback
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
// environment thread id over the per-processor heaps, as in the paper.
func (h *Hoard) NewThread(e env.Env) *alloc.Thread {
	id := e.ThreadID()
	slot := hashTID(id, h.cfg.HashThreads)
	return &alloc.Thread{
		ID:    id,
		Env:   e,
		State: &threadState{heapIdx: 1 + slot%h.cfg.Heaps},
	}
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

// Malloc implements alloc.Allocator: one block from the calling thread's
// heap, under that heap's lock.
func (h *Hoard) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	e := t.Env
	if size > h.classes.MaxSize() {
		return h.mallocLarge(e, size)
	}
	class, _ := h.classes.ClassFor(size)
	blockSize := h.classes.Size(class)
	hp := h.heaps[t.State.(*threadState).heapIdx]
	env.LockWith(hp.Lock, e, "malloc")
	p, _ := h.allocLocked(e, hp, class, blockSize, false)
	hp.Lock.Unlock(e)
	e.Charge(env.OpMallocFast, 1)
	h.acct.OnMalloc(hp.ID, blockSize)
	return p
}

// allocLocked takes one block of class out of hp, whose lock the caller
// holds. cached selects a thread-cache refill, which leaves the block's free
// bit set (heap.AllocCached) and returns the block's superblock with it;
// otherwise the superblock is nil.
//
// When hp has no free block of the class, the slow path first recycles one
// of hp's own empty superblocks into the class: it stays off the global
// lock and, because a(i) does not change, triggers no eviction (where a
// global take grows a(i) and routinely starts an evict/take cycle).
// Otherwise it pulls a superblock from the global heap, or the OS.
func (h *Hoard) allocLocked(e env.Env, hp *heap.Heap, class, blockSize int, cached bool) (alloc.Ptr, *superblock.Superblock) {
	for {
		if cached {
			if p, sb, ok := hp.AllocCached(e, class); ok {
				return p, sb
			}
		} else if p, ok := hp.AllocBlock(e, class); ok {
			return p, nil
		}
		e.Charge(env.OpMallocSlow, 1)
		if hp.ReuseEmpty(e, class, blockSize) != nil {
			h.localReuses.Add(1)
			continue
		}
		g := h.heaps[0]
		env.LockWith(g.Lock, e, "global-take")
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

func (h *Hoard) mallocLarge(e env.Env, size int) alloc.Ptr {
	lo := &largeObj{}
	sp := h.space.Reserve(size, vm.PageSize, lo)
	lo.size = sp.Len
	e.Charge(env.OpOSAlloc, 1)
	e.Charge(env.OpMallocSlow, 1)
	h.osReserves.Add(1)
	h.acct.OnLarge(0)
	h.acct.OnMalloc(0, sp.Len)
	return alloc.Ptr(sp.Base)
}

// resolve is the one pointer→span resolution on the free path: a single
// backend Lookup (page-table walk on sim, address arithmetic on the arena)
// whose result every consumer passes down instead of re-resolving.
// BenchmarkResolveFree pins its cost per backend.
func (h *Hoard) resolve(op string, p alloc.Ptr) *vm.Span {
	sp := h.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("hoard: %s of unknown pointer %#x", op, uint64(p)))
	}
	return sp
}

// usableOf reads a resolved block's usable size.
func usableOf(op string, p alloc.Ptr, sp *vm.Span) int {
	switch owner := sp.Owner.(type) {
	case *largeObj:
		return owner.size
	case *superblock.Superblock:
		return owner.BlockSize()
	}
	panic(fmt.Sprintf("hoard: %s of foreign pointer %#x", op, uint64(p)))
}

// Free implements alloc.Allocator.
func (h *Hoard) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	h.freeSpan(t, p, h.resolve("free", p))
}

// freeSpan completes a free whose pointer is already resolved, so callers
// that needed the span themselves (Realloc) don't pay a second resolution.
func (h *Hoard) freeSpan(t *alloc.Thread, p alloc.Ptr, sp *vm.Span) {
	e := t.Env
	switch owner := sp.Owner.(type) {
	case *largeObj:
		if uint64(p) != sp.Base {
			panic(fmt.Sprintf("hoard: free of interior large-object pointer %#x", uint64(p)))
		}
		h.acct.OnFree(0, owner.size)
		h.space.Release(sp)
		e.Charge(env.OpOSAlloc, 1)
		e.Charge(env.OpFree, 1)
	case *superblock.Superblock:
		h.freeSmall(t, e, owner, p)
	default:
		panic(fmt.Sprintf("hoard: free of foreign pointer %#x", uint64(p)))
	}
}

// freeSmall is the paper's free protocol, the same for every owner — this
// thread's heap, another thread's, or the global heap: lock the owner,
// re-check that it still owns the superblock (ownership can change while we
// wait), free, and restore the emptiness invariant.
func (h *Hoard) freeSmall(t *alloc.Thread, e env.Env, sb *superblock.Superblock, p alloc.Ptr) {
	myIdx := t.State.(*threadState).heapIdx
	// Read the block size while our still-live block pins the superblock's
	// format: once the free retires the block and the lock drops, the
	// superblock may empty and be reformatted to another class.
	blockSize := sb.BlockSize()
	for {
		id := sb.OwnerID()
		hp := h.heaps[id]
		env.LockWith(hp.Lock, e, "free")
		if sb.OwnerID() != id {
			hp.Lock.Unlock(e)
			e.Charge(env.OpListScan, 1)
			continue
		}
		if id != myIdx {
			h.remote.Add(1)
		}
		h.freeLocked(e, hp, sb, p)
		h.acct.OnFree(id, blockSize)
		return
	}
}

// freeLocked performs a free while holding hp's lock (which it releases,
// also when the free panics on a misused pointer, so the heap stays usable),
// then restores the emptiness invariant. A free into a global-heap
// superblock refreshes its park stamp instead: the global heap never
// evicts, and a superblock a free just touched is not cold.
func (h *Hoard) freeLocked(e env.Env, hp *heap.Heap, sb *superblock.Superblock, p alloc.Ptr) {
	defer hp.Lock.Unlock(e)
	hp.FreeBlock(e, sb, p)
	e.Charge(env.OpFree, 1)
	if hp.ID == 0 {
		sb.SetParkedAt(h.clock())
	} else if hp.InvariantViolated() {
		h.restoreInvariant(e, hp)
	}
}

// restoreInvariant moves one at-least-f-empty superblock from hp (whose lock
// the caller holds) to the global heap, as the paper's free path prescribes.
// It reports whether a victim was found; a single free can violate the
// invariant by at most one block, so one move always suffices there, but the
// batch free path loops until the invariant holds or no victim remains.
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
	env.LockWith(g.Lock, e, "evict-insert")
	g.Insert(victim)
	victim.SetParkedAt(h.clock())
	g.Lock.Unlock(e)
	return true
}

// ResolveFree resolves p for a free into a thread cache, with the one span
// lookup the free needs: p's usable size, its superblock (nil for a large
// object), and whether the calling thread's heap owns that superblock. It
// changes nothing; the cache sets the block's free bit itself
// (superblock.MarkCached).
func (h *Hoard) ResolveFree(t *alloc.Thread, p alloc.Ptr) (sb *superblock.Superblock, usable int, local bool) {
	switch owner := h.resolve("free", p).Owner.(type) {
	case *largeObj:
		return nil, owner.size, false
	case *superblock.Superblock:
		return owner, owner.BlockSize(), owner.OwnerID() == t.State.(*threadState).heapIdx
	}
	panic(fmt.Sprintf("hoard: free of foreign pointer %#x", uint64(p)))
}

// UsableSize implements alloc.Allocator.
func (h *Hoard) UsableSize(p alloc.Ptr) int {
	return usableOf("UsableSize", p, h.resolve("UsableSize", p))
}

// Bytes implements alloc.Allocator. One resolution serves both the
// usable-size validation and the byte view.
func (h *Hoard) Bytes(p alloc.Ptr, n int) []byte {
	sp := h.resolve("Bytes", p)
	if usable := usableOf("Bytes", p, sp); n > usable {
		panic(fmt.Sprintf("hoard: Bytes(%#x, %d) exceeds usable size %d", uint64(p), n, usable))
	}
	return sp.Bytes(int(uint64(p)-sp.Base), n)
}

// Realloc returns a block of at least size bytes with the first
// min(size, UsableSize(p)) bytes of p's contents, freeing p. Realloc(nil,
// size) behaves as Malloc; growth within the current block's usable size is
// free. The old block is resolved exactly once — the span feeds the size
// check, the copy, and the free (the pre-refactor path resolved it three
// times via UsableSize, Bytes, and Free).
func (h *Hoard) Realloc(t *alloc.Thread, p alloc.Ptr, size int) alloc.Ptr {
	if p.IsNil() {
		return h.Malloc(t, size)
	}
	sp := h.resolve("realloc", p)
	old := usableOf("realloc", p, sp)
	if size <= old && size > old/2 {
		return p
	}
	np := h.Malloc(t, size)
	n := min(old, size)
	copy(h.Bytes(np, n), sp.Bytes(int(uint64(p)-sp.Base), n))
	t.Env.Touch(uint64(p), n, false)
	t.Env.Touch(uint64(np), n, true)
	h.freeSpan(t, p, sp)
	return np
}

// Stats implements alloc.Allocator.
func (h *Hoard) Stats() alloc.Stats {
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
// quiescent, with no block in a thread cache.
func (h *Hoard) CheckIntegrity() error { return h.checkIntegrity(nil) }

// CheckIntegrityCached is CheckIntegrity for an allocator whose thread
// caches hold the blocks cached: each must be a block whose free bit is set,
// and each superblock's set bits must equal its listed, uncarved and cached
// blocks — which proves no block is both cached and in the application's
// hands. The allocator must be quiescent.
func (h *Hoard) CheckIntegrityCached(cached []alloc.Ptr) error {
	counts := make(map[*superblock.Superblock]int)
	for _, p := range cached {
		sb, ok := superblock.FromPtr(h.space, p)
		if !ok || !sb.Contains(p) {
			return fmt.Errorf("hoard: cached block %#x is not a superblock block", uint64(p))
		}
		if !sb.IsFreeBlock(p) {
			return fmt.Errorf("hoard: cached block %#x is not marked free", uint64(p))
		}
		counts[sb]++
	}
	return h.checkIntegrity(counts)
}

func (h *Hoard) checkIntegrity(cached map[*superblock.Superblock]int) error {
	var u int64
	for _, hp := range h.heaps {
		if err := hp.CheckIntegrityCached(cached); err != nil {
			return err
		}
		u += hp.U()
		// The emptiness invariant is enforced at frees; mallocs may
		// leave a heap transiently below it, but whenever it is
		// violated an evictable superblock must exist — unless the byte
		// shortfall is pure capacity waste: eviction candidacy is a
		// block fraction, so superblocks ≥ (1-f) full by blocks can sit
		// below (1-f)*a in bytes when their class's block size does not
		// divide S, and the free path correctly finds no victim there
		// (see Heap.InvariantViolatedUsable, which re-checks with the
		// waste discounted).
		if hp.ID != 0 && hp.InvariantViolated() &&
			hp.FindEvictable(&env.RealEnv{}) == nil && hp.InvariantViolatedUsable() {
			return fmt.Errorf("hoard: heap %d violates emptiness invariant with no evictable superblock (u=%d a=%d)",
				hp.ID, hp.U(), hp.A())
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
