// Package superblock implements Hoard's unit of memory management.
//
// A superblock is an S-byte, S-aligned span carved into blocks of exactly
// one size class. Each superblock is owned by exactly one heap at a time
// (a per-processor heap or the global heap); ownership is what lets Hoard
// avoid allocator-induced false sharing — blocks of a superblock are handed
// out by a single heap, and frees return blocks to the superblock (and thus
// to its owning heap) rather than to the freeing thread.
//
// Free blocks form a LIFO list plus a lazy "carve frontier": blocks past the
// frontier have never been allocated and need no list linkage. The list's
// state lives in a single packed atomic word — head index, in-use count, a
// version counter, and a sealed bit — so both the owner's locked paths and
// the lock-free warm paths (TryPop/FastFree, §11 of DESIGN.md) mutate it
// with CAS. The links themselves live in a side array (not in block memory):
// a lock-free pop must speculatively read the head block's link while the
// application may already be writing that block through a racing winner, and
// a side array makes the speculative read target allocator-owned memory the
// application never touches. The cache-model Touch charges stay on the block
// addresses, so the simulated cost of walking the list is unchanged. A
// per-superblock free bitmap (atomic) detects double frees and supports
// integrity checking.
package superblock

import (
	"fmt"
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/vm"
)

// DefaultSize is the paper implementation's superblock size S (8 KiB).
const DefaultSize = 8192

// The packed state word: head (17 bits, idx+1 of the local free-list top,
// 0 = empty), used (17 bits, allocated blocks), ver (29 bits, bumped on
// every word mutation so a CAS that succeeds proves the word — and therefore
// the link it validated — did not change in between), and sealed (1 bit,
// fencing the lock-free paths off the superblock).
const (
	headBits  = 17
	usedBits  = 17
	verBits   = 29
	headShift = 0
	usedShift = headBits
	verShift  = headBits + usedBits
	fieldMask = 1<<headBits - 1
	verMask   = 1<<verBits - 1
	sealedBit = uint64(1) << 63

	// MaxBlocks bounds nBlocks so head and used fit their fields.
	MaxBlocks = 1<<headBits - 1
)

func packWord(head, used int, ver uint64, sealed bool) uint64 {
	w := uint64(head)<<headShift | uint64(used)<<usedShift | (ver&verMask)<<verShift
	if sealed {
		w |= sealedBit
	}
	return w
}

func unpackWord(w uint64) (head, used int, ver uint64, sealed bool) {
	return int(w >> headShift & fieldMask),
		int(w >> usedShift & fieldMask),
		w >> verShift & verMask,
		w&sealedBit != 0
}

// Ref is an immutable snapshot of a superblock's format, published at every
// (re)format and cached by heaps as the "warm" fast-path target. A lock-free
// pop validates, after its CAS, that the superblock's current Ref is still
// the one it started from — a successful CAS against a reformatted
// superblock is impossible (format bumps ver), but the pop may have loaded
// the new word with the old Ref, so the identity check is what guarantees
// Class/BlockSize/Base describe the blocks actually popped.
type Ref struct {
	// SB is the superblock.
	SB *Superblock
	// Class, BlockSize and NBlocks are the format parameters.
	Class, BlockSize, NBlocks int
	// Base is the span's first byte, cached so the fast path computes
	// block addresses without touching the superblock's span.
	Base uint64
}

// Superblock manages one S-byte span of blocks of a single size class.
//
// Locking: the packed state word, the link array, and the free bitmap are
// atomic — they are shared between the owning heap's locked paths and the
// lock-free warm paths. carved, decommitted, Next/Prev/Group/Acct are
// protected by the owning heap's lock; parkedAt is atomic (see its comment). ownerID is atomic because the
// free path must read it before taking that lock (and re-check it after,
// since ownership can change while waiting).
type Superblock struct {
	span      *vm.Span
	size      int // S
	class     int
	blockSize int
	nBlocks   int

	// state is the packed head/used/ver/sealed word (see packWord).
	state atomic.Uint64

	carved int // blocks at index >= carved have never been allocated

	// links is the local free list's side array: links[i] holds the idx+1
	// of the block after free block i (0 = end of list). Allocated once at
	// the maximum block count for the span and never re-sliced, so a
	// speculative read through a stale Ref lands in live allocator memory.
	// All element accesses are atomic.
	links []uint32

	freeBits []uint64 // bit i set = block i is free (listed or uncarved); atomic

	// selfRef is the current format's Ref, republished by format.
	selfRef atomic.Pointer[Ref]

	ownerID atomic.Int32

	// Acct is the owning heap's accounted in-use block count for this
	// superblock — the basis of the heap's u bookkeeping and fullness
	// grouping. The lock-free paths move the word's used count without
	// taking the lock, so Acct lags the live count until the heap
	// reconciles (Heap.syncSuper). Managed exclusively by the owning heap,
	// under its lock.
	Acct int

	// decommitted is true while the span's pages are dropped (scavenged);
	// protected by the owning heap's lock. parkedAt is the clock reading
	// when the superblock last went idle on the global heap; the
	// scavenger's cold-age filter compares against it. parkedAt is atomic
	// because a direct lock-free free to a global-heap superblock
	// refreshes the stamp without the global lock.
	decommitted bool
	parkedAt    atomic.Int64

	// Next and Prev link the superblock into its heap's fullness-group
	// list for its size class. Group is the list it is currently on.
	// All three are managed exclusively by the owning heap.
	Next, Prev *Superblock
	Group      int
}

// New reserves a fresh size-byte, size-aligned span from space and formats
// it as a superblock of the given class and block size. blockSize must be a
// positive multiple of 8 no larger than size. The superblock starts sealed;
// inserting it into a per-processor heap unseals it.
func New(space vm.Backend, size, class, blockSize int) *Superblock {
	if blockSize <= 0 || blockSize%8 != 0 || blockSize > size {
		panic(fmt.Sprintf("superblock: bad block size %d for S=%d", blockSize, size))
	}
	sb := &Superblock{size: size}
	sb.span = space.Reserve(size, size, sb)
	// links and freeBits are sized for the smallest legal block (8 bytes)
	// once, so no later Reinit re-slices them out from under a concurrent
	// speculative reader holding a stale Ref.
	maxBlocks := size / 8
	sb.links = make([]uint32, maxBlocks)
	sb.freeBits = make([]uint64, (maxBlocks+63)/64)
	sb.format(class, blockSize)
	return sb
}

// format initializes block bookkeeping for a (possibly recycled) superblock.
// The caller guarantees no live blocks and no lock-free traffic can commit
// (the word is empty, and every fast CAS validates against it).
func (sb *Superblock) format(class, blockSize int) {
	if sb.decommitted {
		panic(fmt.Sprintf("superblock %#x: format while decommitted (missing Recommit)", sb.span.Base))
	}
	sb.class = class
	sb.blockSize = blockSize
	sb.nBlocks = sb.size / blockSize
	if sb.nBlocks > MaxBlocks {
		panic(fmt.Sprintf("superblock: %d blocks exceed MaxBlocks %d", sb.nBlocks, MaxBlocks))
	}
	sb.carved = 0
	for i := 0; i <= (sb.nBlocks-1)/64; i++ {
		atomic.StoreUint64(&sb.freeBits[i], ^uint64(0))
	}
	// Reset the word monotonically: the new ver is greater than any a stale
	// fast path can hold, so its CAS fails; the sealed bit stays set until
	// a per-processor heap takes the superblock in.
	_, _, ver, _ := unpackWord(sb.state.Load())
	sb.state.Store(packWord(0, 0, ver+1, true))
	sb.selfRef.Store(&Ref{SB: sb, Class: class, BlockSize: blockSize, NBlocks: sb.nBlocks, Base: sb.span.Base})
}

// SelfRef returns the current format's Ref — the handle heaps publish as
// their warm fast-path target.
func (sb *Superblock) SelfRef() *Ref { return sb.selfRef.Load() }

// Reinit reformats an empty superblock for a new size class. Hoard's global
// heap recycles completely empty superblocks across classes; reinitializing
// a non-empty superblock panics.
func (sb *Superblock) Reinit(class, blockSize int) {
	if n := sb.InUse(); n != 0 {
		panic(fmt.Sprintf("superblock: Reinit with %d blocks in use", n))
	}
	if blockSize <= 0 || blockSize%8 != 0 || blockSize > sb.size {
		panic(fmt.Sprintf("superblock: bad block size %d for S=%d", blockSize, sb.size))
	}
	sb.format(class, blockSize)
}

// Release returns the superblock's span to the simulated OS. The superblock
// must be empty and must no longer be reachable from any heap; Release seals
// it so any stale warm Ref sees an empty, sealed word forever.
func (sb *Superblock) Release(space vm.Backend) {
	sb.Seal()
	if n := sb.InUse(); n != 0 {
		panic("superblock: Release with blocks in use")
	}
	for {
		w := sb.state.Load()
		_, _, ver, _ := unpackWord(w)
		if sb.state.CompareAndSwap(w, packWord(0, 0, ver+1, true)) {
			break
		}
	}
	space.Release(sb.span)
	sb.span = nil
	sb.decommitted = false
}

// Seal sets the word's sealed bit, fencing every lock-free path off the
// superblock: a fast op that loads the word sees the bit and bails, and one
// whose load predates the seal fails its CAS (the seal bumped ver). Locked
// paths ignore the bit. Sealing is idempotent. Eviction, heap transfer,
// decommit, and release all seal; steady residency on any heap — the
// global one included — runs unsealed, so frees land lock-free anywhere.
func (sb *Superblock) Seal() {
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		if sealed {
			return
		}
		if sb.state.CompareAndSwap(w, packWord(head, used, ver+1, true)) {
			return
		}
	}
}

// Unseal clears the sealed bit, re-admitting the lock-free paths. Called
// when a per-processor heap takes the superblock in.
func (sb *Superblock) Unseal() {
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		if !sealed {
			return
		}
		if sb.state.CompareAndSwap(w, packWord(head, used, ver+1, false)) {
			return
		}
	}
}

// Sealed reports whether the lock-free paths are currently fenced off.
func (sb *Superblock) Sealed() bool {
	_, _, _, sealed := unpackWord(sb.state.Load())
	return sealed
}

// Decommit drops the superblock's backing pages in place
// (madvise(DONTNEED)-style) while the superblock stays parked on its heap:
// its address range remains reserved, FromPtr still resolves into it, but
// its committed bytes return to the OS until Recommit. The word is reset to
// the pristine empty state — sealed, so any stale warm Ref is fenced out for
// good measure (an empty head already blocks pops) — and carved returns to
// zero. The superblock must be completely empty; the caller holds the
// owning heap's lock. The decommit is charged as an OS call.
func (sb *Superblock) Decommit(e env.Env) {
	if n := sb.InUse(); n != 0 {
		panic(fmt.Sprintf("superblock %#x: Decommit with %d blocks in use", sb.Base(), n))
	}
	if sb.decommitted {
		panic(fmt.Sprintf("superblock %#x: double Decommit", sb.Base()))
	}
	for {
		w := sb.state.Load()
		_, used, ver, _ := unpackWord(w)
		if used != 0 {
			panic(fmt.Sprintf("superblock %#x: Decommit with %d blocks in use", sb.Base(), used))
		}
		if sb.state.CompareAndSwap(w, packWord(0, 0, ver+1, true)) {
			break
		}
	}
	sb.carved = 0
	sb.decommitted = true
	e.Charge(env.OpOSAlloc, 1)
	sb.span.Decommit(0, sb.size)
}

// Recommit restores the superblock's backing pages after a Decommit so its
// blocks can be handed out again; a no-op if the superblock is committed.
// The caller holds the owning heap's lock. The superblock stays sealed until
// a per-processor heap takes it in.
func (sb *Superblock) Recommit(e env.Env) {
	if !sb.decommitted {
		return
	}
	e.Charge(env.OpOSAlloc, 1)
	sb.span.Recommit(0, sb.size)
	sb.decommitted = false
}

// Decommitted reports whether the superblock's pages are currently dropped.
func (sb *Superblock) Decommitted() bool { return sb.decommitted }

// ParkedAt returns the clock reading recorded by SetParkedAt, the scavenger's
// cold-age input. Zero means never stamped.
func (sb *Superblock) ParkedAt() int64 { return sb.parkedAt.Load() }

// SetParkedAt records when the superblock last went idle on (or was last
// touched while on) the global heap. The caller holds the owning heap's lock.
func (sb *Superblock) SetParkedAt(ns int64) { sb.parkedAt.Store(ns) }

// FromPtr resolves a block pointer to its superblock via the address space's
// page map, the moral equivalent of the paper's per-block header. ok is
// false if p does not belong to any live superblock (e.g. it is a large
// object or garbage).
func FromPtr(space vm.Backend, p alloc.Ptr) (*Superblock, bool) {
	sp := space.Lookup(uint64(p))
	if sp == nil {
		return nil, false
	}
	sb, ok := sp.Owner.(*Superblock)
	return sb, ok
}

// Size returns S, the superblock's total byte size.
func (sb *Superblock) Size() int { return sb.size }

// Class returns the size class this superblock currently serves.
func (sb *Superblock) Class() int { return sb.class }

// BlockSize returns the byte size of each block.
func (sb *Superblock) BlockSize() int { return sb.blockSize }

// NBlocks returns the number of blocks the superblock holds.
func (sb *Superblock) NBlocks() int { return sb.nBlocks }

// InUse returns the number of allocated blocks, read from the live word.
func (sb *Superblock) InUse() int {
	_, used, _, _ := unpackWord(sb.state.Load())
	return used
}

// BytesInUse returns the allocated bytes (blocks in use times block size).
func (sb *Superblock) BytesInUse() int { return sb.InUse() * sb.blockSize }

// Capacity returns the total usable bytes (nBlocks times block size).
func (sb *Superblock) Capacity() int { return sb.nBlocks * sb.blockSize }

// Full reports whether every block is allocated.
func (sb *Superblock) Full() bool { return sb.InUse() == sb.nBlocks }

// Empty reports whether no block is allocated.
func (sb *Superblock) Empty() bool { return sb.InUse() == 0 }

// Fullness returns the allocated fraction in [0,1].
func (sb *Superblock) Fullness() float64 {
	return float64(sb.InUse()) / float64(sb.nBlocks)
}

// AtLeastEmpty reports whether the superblock is at least fraction f empty,
// the condition a superblock must meet to move to the global heap.
func (sb *Superblock) AtLeastEmpty(f float64) bool {
	return float64(sb.nBlocks-sb.InUse()) >= f*float64(sb.nBlocks)
}

// OwnerID returns the id of the heap that currently owns this superblock.
func (sb *Superblock) OwnerID() int { return int(sb.ownerID.Load()) }

// SetOwnerID records a change of owning heap. Callers must hold the
// previous owner's lock (and, for heap-to-heap moves, the new owner's).
func (sb *Superblock) SetOwnerID(id int) { sb.ownerID.Store(int32(id)) }

// Base returns the simulated address of the superblock's first byte.
func (sb *Superblock) Base() uint64 { return sb.span.Base }

// AllocBlock pops a free block, preferring recently freed blocks (LIFO) for
// locality, then carving never-used blocks. ok is false when the superblock
// is full. The caller holds the owning heap's lock; the CAS loop is because
// lock-free frees may race the word (the carve frontier itself is
// lock-protected — only this path advances it).
func (sb *Superblock) AllocBlock(e env.Env) (p alloc.Ptr, ok bool) {
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		var idx int
		if head != 0 {
			idx = head - 1
			next := atomic.LoadUint32(&sb.links[idx])
			if !sb.state.CompareAndSwap(w, packWord(int(next), used+1, ver+1, sealed)) {
				continue
			}
			// The Touch models reading the block's link — the access
			// where an allocator picks up a cache line the freeing
			// thread wrote (passive false sharing's mechanism).
			e.Touch(sb.addrOf(idx), 4, false)
		} else if sb.carved < sb.nBlocks {
			idx = sb.carved
			if !sb.state.CompareAndSwap(w, packWord(0, used+1, ver+1, sealed)) {
				continue
			}
			sb.carved++
		} else {
			return 0, false
		}
		if !sb.testAndClearFree(idx) {
			panic(fmt.Sprintf("superblock %#x: free-list/bitmap mismatch at block %d", sb.Base(), idx))
		}
		return alloc.Ptr(sb.addrOf(idx)), true
	}
}

// FreeBlock returns a block to the superblock's LIFO free list. It panics
// on misaligned pointers, pointers outside the superblock, and double
// frees. The caller holds the owning heap's lock.
func (sb *Superblock) FreeBlock(e env.Env, p alloc.Ptr) {
	idx := sb.indexOf(p)
	// Bit first, then word: a concurrent lock-free pop clears the bit only
	// after winning the word CAS, so the bit must already be set by then.
	if !sb.testAndSetFree(idx) {
		panic(fmt.Sprintf("superblock %#x: double free of block %d (%#x)", sb.Base(), idx, uint64(p)))
	}
	// The Touch models writing the block's link, dirtying the block's
	// cache line in the freeing thread's cache — the other half of the
	// false-sharing mechanism.
	e.Touch(uint64(p), 4, true)
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		atomic.StoreUint32(&sb.links[idx], uint32(head))
		if sb.state.CompareAndSwap(w, packWord(idx+1, used-1, ver+1, sealed)) {
			return
		}
	}
}

// TryPop is the lock-free warm-path malloc: it pops the local free list's
// top block with one CAS, without the owning heap's lock. ok is false when
// the list is empty, the superblock is sealed (global-heap-owned, evicting,
// decommitted, or released), or the Ref turned stale — callers then take
// the locked slow path. retries counts CAS retries (contention telemetry).
//
// Safety: links[head-1] is read speculatively, but any mutation that could
// change it also bumps the word's ver, so a successful CAS proves the link
// was current. A successful CAS against a *reformatted* superblock is
// likewise impossible; the post-CAS identity check against SelfRef covers
// the remaining window (ref loaded before a reformat, word loaded after),
// undoing the pop if it fires.
func (r *Ref) TryPop(e env.Env) (p alloc.Ptr, ok bool, retries int) {
	sb := r.SB
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		if sealed || head == 0 {
			return 0, false, retries
		}
		idx := head - 1
		if idx >= r.NBlocks {
			// Stale Ref over a differently-formatted word.
			return 0, false, retries
		}
		next := atomic.LoadUint32(&sb.links[idx])
		if int(next) > r.NBlocks {
			return 0, false, retries
		}
		if !sb.state.CompareAndSwap(w, packWord(int(next), used+1, ver+1, false)) {
			retries++
			continue
		}
		if sb.selfRef.Load() != r {
			// Reformatted between our Ref load and word load: the pop
			// committed against the new format, whose geometry we do not
			// know. Push the block back and bail to the locked path.
			sb.undoPop(idx)
			return 0, false, retries
		}
		e.Touch(r.Base+uint64(idx*r.BlockSize), 4, false)
		if !sb.testAndClearFree(idx) {
			panic(fmt.Sprintf("superblock %#x: free-list/bitmap mismatch at block %d (lock-free pop)", sb.Base(), idx))
		}
		return alloc.Ptr(r.Base + uint64(idx*r.BlockSize)), true, retries
	}
}

// TryPopRun is the lock-free batch refill: it claims up to len(out) blocks
// from the local free list — a whole run of the LIFO chain — with a single
// CAS, and returns how many it claimed. The run walk reads links
// speculatively; the one CAS validates the entire walked chain (any
// concurrent mutation bumps ver). On a stale Ref the whole run is pushed
// back. n is 0 when the list is empty or the superblock is sealed.
func (r *Ref) TryPopRun(e env.Env, out []alloc.Ptr) (n, retries int) {
	sb := r.SB
	if len(out) == 0 {
		return 0, 0
	}
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		if sealed || head == 0 {
			return 0, retries
		}
		// First walk: find the run's length and cut point. No buffering —
		// links of on-list blocks are immutable while they stay on the
		// list, so if the word CAS below succeeds the same chain can be
		// re-walked to fill out (and the blocks are exclusively ours by
		// then). A torn walk under concurrent mutation at worst reads a
		// garbage chain; the bounds checks cap it and the CAS rejects it.
		k, last := 0, 0
		cur := head
		for cur != 0 && k < len(out) {
			idx := cur - 1
			if idx >= r.NBlocks {
				return 0, retries
			}
			next := atomic.LoadUint32(&sb.links[idx])
			if int(next) > r.NBlocks {
				return 0, retries
			}
			last = idx
			k++
			cur = int(next)
		}
		if !sb.state.CompareAndSwap(w, packWord(cur, used+k, ver+1, false)) {
			retries++
			continue
		}
		if sb.selfRef.Load() != r {
			// The chain's internal links are untouched, so splicing the
			// whole run back is one word CAS.
			sb.undoPopRun(head-1, last, k)
			return 0, retries
		}
		// Second walk: claim each block of the run.
		idx := head - 1
		for i := 0; i < k; i++ {
			e.Touch(r.Base+uint64(idx*r.BlockSize), 4, false)
			if !sb.testAndClearFree(idx) {
				panic(fmt.Sprintf("superblock %#x: free-list/bitmap mismatch at block %d (lock-free batch pop)", sb.Base(), idx))
			}
			out[i] = alloc.Ptr(r.Base + uint64(idx*r.BlockSize))
			if i+1 < k {
				idx = int(atomic.LoadUint32(&sb.links[idx])) - 1
			}
		}
		return k, retries
	}
}

// undoPop pushes idx back onto the local list after a pop that must be
// rolled back (stale-Ref detection). The block's free bit was never cleared.
func (sb *Superblock) undoPop(idx int) {
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		atomic.StoreUint32(&sb.links[idx], uint32(head))
		if sb.state.CompareAndSwap(w, packWord(idx+1, used-1, ver+1, sealed)) {
			return
		}
	}
}

// undoPopRun splices a popped run (first..last, links intact) back onto the
// local list.
func (sb *Superblock) undoPopRun(first, last, k int) {
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		atomic.StoreUint32(&sb.links[last], uint32(head))
		if sb.state.CompareAndSwap(w, packWord(first+1, used-k, ver+1, sealed)) {
			return
		}
	}
}

// FastFree is the lock-free free: it pushes the block onto the superblock's
// free list with one CAS, without any heap lock — the push works from any
// thread, owner or not. ok is false when the superblock is sealed — the
// caller then takes the locked path (the free bit is rolled back first, so
// the locked free re-detects double frees itself). wasEmpty reports that
// this push turned an empty free list nonempty — the signal the caller uses
// to publish the superblock as a warm-path candidate. It panics on double
// frees. retries counts CAS retries.
func (sb *Superblock) FastFree(e env.Env, p alloc.Ptr) (ok, wasEmpty bool, retries int) {
	idx := sb.indexOf(p)
	if sb.Sealed() {
		return false, false, 0
	}
	// Bit first, then word, as in FreeBlock — a winning pop expects the
	// bit set. A failed seal-race CAS rolls the bit back below.
	if !sb.testAndSetFree(idx) {
		panic(fmt.Sprintf("superblock %#x: double free of block %d (%#x)", sb.Base(), idx, uint64(p)))
	}
	e.Touch(uint64(p), 4, true)
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		if sealed {
			if !sb.testAndClearFree(idx) {
				panic(fmt.Sprintf("superblock %#x: free bit of block %d vanished during rollback", sb.Base(), idx))
			}
			return false, false, retries
		}
		atomic.StoreUint32(&sb.links[idx], uint32(head))
		if sb.state.CompareAndSwap(w, packWord(idx+1, used-1, ver+1, false)) {
			return true, head == 0, retries
		}
		retries++
	}
}

// FastFreeRun is the lock-free batch flush for an owner-local group: it
// chains ps through the side links and pushes the whole chain onto the local
// free list with one CAS. All-or-nothing: ok is false (and every free bit is
// rolled back) when the superblock is sealed, and the caller dispatches the
// group through the locked path. It panics on double frees, including
// duplicates within the batch.
func (sb *Superblock) FastFreeRun(e env.Env, ps []alloc.Ptr) (ok, wasEmpty bool, retries int) {
	if len(ps) == 0 {
		return true, false, 0
	}
	if sb.Sealed() {
		return false, false, 0
	}
	idxs := make([]int, len(ps))
	for i, p := range ps {
		idxs[i] = sb.indexOf(p)
	}
	for i, idx := range idxs {
		if !sb.testAndSetFree(idx) {
			for _, prev := range idxs[:i] {
				sb.testAndClearFree(prev)
			}
			panic(fmt.Sprintf("superblock %#x: double free of block %d (%#x)", sb.Base(), idx, uint64(ps[i])))
		}
		e.Touch(uint64(ps[i]), 4, true)
	}
	// Chain idxs[0] -> idxs[1] -> ... through the side links; the tail
	// link is written inside the CAS loop.
	for i := 0; i+1 < len(idxs); i++ {
		atomic.StoreUint32(&sb.links[idxs[i]], uint32(idxs[i+1]+1))
	}
	k := len(idxs)
	for {
		w := sb.state.Load()
		head, used, ver, sealed := unpackWord(w)
		if sealed {
			for _, idx := range idxs {
				if !sb.testAndClearFree(idx) {
					panic(fmt.Sprintf("superblock %#x: free bit of block %d vanished during rollback", sb.Base(), idx))
				}
			}
			return false, false, retries
		}
		atomic.StoreUint32(&sb.links[idxs[k-1]], uint32(head))
		if sb.state.CompareAndSwap(w, packWord(idxs[0]+1, used-k, ver+1, false)) {
			return true, head == 0, retries
		}
		retries++
	}
}

// Contains reports whether p points at a block boundary inside sb.
func (sb *Superblock) Contains(p alloc.Ptr) bool {
	a := uint64(p)
	if a < sb.span.Base || a >= sb.span.End() {
		return false
	}
	return (a-sb.span.Base)%uint64(sb.blockSize) == 0 &&
		int(a-sb.span.Base)/sb.blockSize < sb.nBlocks
}

func (sb *Superblock) addrOf(idx int) uint64 {
	return sb.span.Base + uint64(idx*sb.blockSize)
}

func (sb *Superblock) indexOf(p alloc.Ptr) int {
	off := uint64(p) - sb.span.Base
	if uint64(p) < sb.span.Base || off%uint64(sb.blockSize) != 0 || int(off)/sb.blockSize >= sb.nBlocks {
		panic(fmt.Sprintf("superblock %#x: bad block pointer %#x", sb.Base(), uint64(p)))
	}
	return int(off) / sb.blockSize
}

func (sb *Superblock) isFree(idx int) bool {
	return atomic.LoadUint64(&sb.freeBits[idx/64])&(1<<(idx%64)) != 0
}

func (sb *Superblock) testAndSetFree(idx int) bool {
	w, b := idx/64, uint64(1)<<(idx%64)
	for {
		old := atomic.LoadUint64(&sb.freeBits[w])
		if old&b != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&sb.freeBits[w], old, old|b) {
			return true
		}
	}
}

func (sb *Superblock) testAndClearFree(idx int) bool {
	w, b := idx/64, uint64(1)<<(idx%64)
	for {
		old := atomic.LoadUint64(&sb.freeBits[w])
		if old&b == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&sb.freeBits[w], old, old&^b) {
			return true
		}
	}
}

// CheckIntegrity validates the free list, bitmap, and counters. The
// superblock must be quiescent.
func (sb *Superblock) CheckIntegrity() error {
	return sb.checkIntegrity(false)
}

// CheckIntegrityOnline is CheckIntegrity for a superblock whose owner heap's
// lock is held but which may be receiving concurrent lock-free traffic:
// warm-path pops and CAS frees from any thread. The word is checked for
// internal sanity; the free-list walk and the bitmap-versus-word
// comparisons are skipped, because the lock-free paths legitimately move the
// word and the bits in separate steps (bit before CAS on free, CAS before bit
// on pop).
func (sb *Superblock) CheckIntegrityOnline() error {
	return sb.checkIntegrity(true)
}

func (sb *Superblock) checkIntegrity(online bool) error {
	if sb.span == nil {
		return fmt.Errorf("superblock: released but still reachable")
	}
	head, used, _, _ := unpackWord(sb.state.Load())
	if sb.decommitted {
		// A decommitted superblock's only consistent shape is the pristine
		// empty one.
		if used != 0 || head != 0 || sb.carved != 0 {
			return fmt.Errorf("superblock %#x: decommitted but used %d head %d carved %d",
				sb.Base(), used, head, sb.carved)
		}
		if got := sb.span.DecommittedBytes(); got != int64(sb.size) {
			return fmt.Errorf("superblock %#x: decommitted flag set but span has %d/%d bytes dropped", sb.Base(), got, sb.size)
		}
		return nil
	}
	if got := sb.span.DecommittedBytes(); got != 0 {
		return fmt.Errorf("superblock %#x: committed flag but span has %d bytes dropped", sb.Base(), got)
	}
	if used < 0 || used > sb.nBlocks {
		return fmt.Errorf("superblock %#x: used %d out of range", sb.Base(), used)
	}
	if ref := sb.selfRef.Load(); ref == nil || ref.SB != sb || ref.BlockSize != sb.blockSize ||
		ref.NBlocks != sb.nBlocks || ref.Base != sb.span.Base {
		return fmt.Errorf("superblock %#x: stale self Ref", sb.Base())
	}
	if online {
		return nil
	}
	seen := make(map[int]bool)
	listed := 0
	for cur := head; cur != 0; {
		idx := cur - 1
		if idx < 0 || idx >= sb.carved {
			return fmt.Errorf("superblock %#x: free list index %d outside carved range [0,%d)", sb.Base(), idx, sb.carved)
		}
		if seen[idx] {
			return fmt.Errorf("superblock %#x: free list cycle at block %d", sb.Base(), idx)
		}
		if !sb.isFree(idx) {
			return fmt.Errorf("superblock %#x: listed block %d not marked free", sb.Base(), idx)
		}
		seen[idx] = true
		listed++
		cur = int(atomic.LoadUint32(&sb.links[idx]))
	}
	if want := sb.carved - used; listed != want {
		return fmt.Errorf("superblock %#x: %d blocks on free list, want %d (carved %d, used %d)",
			sb.Base(), listed, want, sb.carved, used)
	}
	freeBits := 0
	for i := 0; i < sb.nBlocks; i++ {
		if sb.isFree(i) {
			freeBits++
		}
	}
	if freeBits != sb.nBlocks-used {
		return fmt.Errorf("superblock %#x: bitmap says %d free, counters say %d",
			sb.Base(), freeBits, sb.nBlocks-used)
	}
	return nil
}
