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
// frontier have never been allocated and need no list linkage. The list and
// its counters change only under the owning heap's lock. The links live in
// a side array, not in block memory, so every byte of a block belongs to
// the application; the cache-model Touch charges stay on the block
// addresses, so the simulated cost of walking the list is the same. A
// per-superblock free bitmap (atomic) detects double frees and supports
// integrity checking. Its bit for a block is set whenever the application
// does not hold the block — also while a thread cache holds it (DESIGN.md
// §11), which is how a double free into a cache still fails at the call.
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

// Superblock manages one S-byte span of blocks of a single size class.
//
// Locking: everything except the free bitmap, ownerID and the format
// fields read by a freeing thread is protected by the owning heap's lock.
// The free bitmap is atomic because a thread cache flips the bit of a block
// it holds without that lock (MarkCached, ClaimCached); ownerID is atomic
// because the free path must read it before taking that lock (and re-check
// it after, since ownership can change while waiting).
type Superblock struct {
	span      *vm.Span
	size      int // S
	class     int
	blockSize int
	nBlocks   int

	head   int // idx+1 of the free list's top block, 0 = empty list
	used   int // blocks out of the superblock: allocated or thread-cached
	carved int // blocks at index >= carved have never been allocated

	// links is the free list's side array: links[i] holds the idx+1 of the
	// block after free block i (0 = end of list). Keeping the links out of
	// block memory leaves every byte of a block to the application.
	links []uint32

	// freeBits has bit i set while block i is not in the application's
	// hands: listed, uncarved, or held by a thread cache. Atomic.
	freeBits []uint64

	ownerID atomic.Int32

	// decommitted is true while the span's pages are dropped (scavenged).
	// parkedAt is the clock reading when the superblock last went idle on
	// the global heap; the scavenger's cold-age filter compares against it.
	decommitted bool
	parkedAt    int64

	// Next and Prev link the superblock into its heap's fullness-group
	// list for its size class. Group is the list it is currently on.
	// All three are managed exclusively by the owning heap.
	Next, Prev *Superblock
	Group      int
}

// New reserves a fresh size-byte, size-aligned span from space and formats
// it as a superblock of the given class and block size. blockSize must be a
// positive multiple of 8 no larger than size.
func New(space vm.Backend, size, class, blockSize int) *Superblock {
	if blockSize <= 0 || blockSize%8 != 0 || blockSize > size {
		panic(fmt.Sprintf("superblock: bad block size %d for S=%d", blockSize, size))
	}
	sb := &Superblock{size: size}
	sb.span = space.Reserve(size, size, sb)
	sb.format(class, blockSize)
	return sb
}

// format initializes block bookkeeping for a (possibly recycled) superblock
// with no blocks out.
func (sb *Superblock) format(class, blockSize int) {
	if sb.decommitted {
		panic(fmt.Sprintf("superblock %#x: format while decommitted (missing Recommit)", sb.span.Base))
	}
	sb.class = class
	sb.blockSize = blockSize
	sb.nBlocks = sb.size / blockSize
	if cap(sb.links) < sb.nBlocks {
		sb.links = make([]uint32, sb.nBlocks)
		sb.freeBits = make([]uint64, (sb.nBlocks+63)/64)
	}
	sb.links = sb.links[:sb.nBlocks]
	sb.freeBits = sb.freeBits[:(sb.nBlocks+63)/64]
	for i := range sb.freeBits {
		atomic.StoreUint64(&sb.freeBits[i], ^uint64(0))
	}
	sb.head, sb.used, sb.carved = 0, 0, 0
}

// SelfRef returns sb itself. The benchmark's superblock replay
// (perfbench/layers.go), its only caller, pops through SelfRef().TryPop.
func (sb *Superblock) SelfRef() *Superblock { return sb }

// Reinit reformats an empty superblock for a new size class. Hoard's global
// heap recycles completely empty superblocks across classes; reinitializing
// a non-empty superblock panics.
func (sb *Superblock) Reinit(class, blockSize int) {
	if sb.used != 0 {
		panic(fmt.Sprintf("superblock: Reinit with %d blocks in use", sb.used))
	}
	if blockSize <= 0 || blockSize%8 != 0 || blockSize > sb.size {
		panic(fmt.Sprintf("superblock: bad block size %d for S=%d", blockSize, sb.size))
	}
	sb.format(class, blockSize)
}

// Release returns the superblock's span to the simulated OS. The superblock
// must be empty and must no longer be reachable from any heap.
func (sb *Superblock) Release(space vm.Backend) {
	if sb.used != 0 {
		panic("superblock: Release with blocks in use")
	}
	space.Release(sb.span)
	sb.span = nil
	sb.head, sb.carved = 0, 0
	sb.decommitted = false
}

// Unseal is a no-op. The allocator has one protocol, under the owning
// heap's lock, and nothing left to fence; the benchmark's superblock replay
// (perfbench/layers.go) is its only caller.
func (sb *Superblock) Unseal() {}

// Decommit drops the superblock's backing pages in place
// (madvise(DONTNEED)-style) while the superblock stays parked on its heap:
// its address range remains reserved, FromPtr still resolves into it, but
// its committed bytes return to the OS until Recommit. The free list
// returns to the pristine empty state and carved to zero. The superblock
// must be completely empty; the caller holds the owning heap's lock. The
// decommit is charged as an OS call.
func (sb *Superblock) Decommit(e env.Env) {
	if sb.used != 0 {
		panic(fmt.Sprintf("superblock %#x: Decommit with %d blocks in use", sb.Base(), sb.used))
	}
	if sb.decommitted {
		panic(fmt.Sprintf("superblock %#x: double Decommit", sb.Base()))
	}
	sb.head, sb.carved = 0, 0
	sb.decommitted = true
	e.Charge(env.OpOSAlloc, 1)
	sb.span.Decommit(0, sb.size)
}

// Recommit restores the superblock's backing pages after a Decommit so its
// blocks can be handed out again; a no-op if the superblock is committed.
// The caller holds the owning heap's lock.
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
func (sb *Superblock) ParkedAt() int64 { return sb.parkedAt }

// SetParkedAt records when the superblock last went idle on (or was last
// touched while on) the global heap. The caller holds the owning heap's lock.
func (sb *Superblock) SetParkedAt(ns int64) { sb.parkedAt = ns }

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

// InUse returns the number of blocks out of the superblock: allocated to
// the application or held by a thread cache.
func (sb *Superblock) InUse() int { return sb.used }

// BytesInUse returns the bytes out (blocks in use times block size).
func (sb *Superblock) BytesInUse() int { return sb.used * sb.blockSize }

// Capacity returns the total usable bytes (nBlocks times block size).
func (sb *Superblock) Capacity() int { return sb.nBlocks * sb.blockSize }

// Full reports whether every block is out.
func (sb *Superblock) Full() bool { return sb.used == sb.nBlocks }

// Empty reports whether no block is out.
func (sb *Superblock) Empty() bool { return sb.used == 0 }

// Fullness returns the allocated fraction in [0,1].
func (sb *Superblock) Fullness() float64 {
	return float64(sb.used) / float64(sb.nBlocks)
}

// AtLeastEmpty reports whether the superblock is at least fraction f empty,
// the condition a superblock must meet to move to the global heap.
func (sb *Superblock) AtLeastEmpty(f float64) bool {
	return float64(sb.nBlocks-sb.used) >= f*float64(sb.nBlocks)
}

// OwnerID returns the id of the heap that currently owns this superblock.
func (sb *Superblock) OwnerID() int { return int(sb.ownerID.Load()) }

// SetOwnerID records a change of owning heap. Callers must hold the
// previous owner's lock (and, for heap-to-heap moves, the new owner's).
func (sb *Superblock) SetOwnerID(id int) { sb.ownerID.Store(int32(id)) }

// Base returns the simulated address of the superblock's first byte.
func (sb *Superblock) Base() uint64 { return sb.span.Base }

// pop takes a block out of the superblock, preferring recently freed blocks
// (LIFO) for locality, then carving never-used blocks. ok is false when the
// superblock is full. The caller holds the owning heap's lock.
func (sb *Superblock) pop(e env.Env) (idx int, ok bool) {
	switch {
	case sb.head != 0:
		idx = sb.head - 1
		sb.head = int(sb.links[idx])
		// The Touch models reading the block's link — the access where an
		// allocator picks up a cache line the freeing thread wrote
		// (passive false sharing's mechanism).
		e.Touch(sb.addrOf(idx), 4, false)
	case sb.carved < sb.nBlocks:
		idx = sb.carved
		sb.carved++
	default:
		return 0, false
	}
	sb.used++
	return idx, true
}

// push returns block idx to the free list. The caller holds the owning
// heap's lock and has set the block's free bit.
func (sb *Superblock) push(e env.Env, idx int) {
	// The Touch models writing the block's link, dirtying the block's
	// cache line in the freeing thread's cache — the other half of the
	// false-sharing mechanism.
	e.Touch(sb.addrOf(idx), 4, true)
	sb.links[idx] = uint32(sb.head)
	sb.head = idx + 1
	sb.used--
}

// AllocBlock allocates a block to the application: it pops one and clears
// its free bit. ok is false when the superblock is full. The caller holds
// the owning heap's lock.
func (sb *Superblock) AllocBlock(e env.Env) (p alloc.Ptr, ok bool) {
	idx, ok := sb.pop(e)
	if !ok {
		return 0, false
	}
	if !sb.testAndClearFree(idx) {
		panic(fmt.Sprintf("superblock %#x: free-list/bitmap mismatch at block %d", sb.Base(), idx))
	}
	return alloc.Ptr(sb.addrOf(idx)), true
}

// FreeBlock returns an application-held block to the free list. It panics
// on misaligned pointers, pointers outside the superblock, and double frees
// (a block already listed, uncarved, or thread-cached). The caller holds the
// owning heap's lock.
func (sb *Superblock) FreeBlock(e env.Env, p alloc.Ptr) {
	idx := sb.indexOf(p)
	if !sb.testAndSetFree(idx) {
		panic(fmt.Sprintf("superblock %#x: double free of block %d (%#x)", sb.Base(), idx, uint64(p)))
	}
	sb.push(e, idx)
}

// AllocCached pops a block for a thread cache. Its free bit stays set: the
// block moves from the free list to the cache without ever being in the
// application's hands, and the cache clears the bit when it hands the block
// out (ClaimCached). The caller holds the owning heap's lock.
func (sb *Superblock) AllocCached(e env.Env) (p alloc.Ptr, ok bool) {
	idx, ok := sb.pop(e)
	if !ok {
		return 0, false
	}
	if !sb.isFree(idx) {
		panic(fmt.Sprintf("superblock %#x: free-list/bitmap mismatch at block %d", sb.Base(), idx))
	}
	return alloc.Ptr(sb.addrOf(idx)), true
}

// FreeCached returns a thread-cached block to the free list. The cache
// already set its free bit (MarkCached), so the bit must be set; a clear bit
// means the block left the cache twice. The caller holds the owning heap's
// lock.
func (sb *Superblock) FreeCached(e env.Env, p alloc.Ptr) {
	idx := sb.indexOf(p)
	if !sb.isFree(idx) {
		panic(fmt.Sprintf("superblock %#x: cached block %d (%#x) is not marked free", sb.Base(), idx, uint64(p)))
	}
	sb.push(e, idx)
}

// MarkCached sets the free bit of an application-held block as a thread
// cache takes it back, without the owning heap's lock. It panics on a bad
// pointer and on a double free — a block already listed, uncarved, or in a
// cache — so a double free fails at the call even when the first free went
// no further than a cache.
func (sb *Superblock) MarkCached(p alloc.Ptr) {
	idx := sb.indexOf(p)
	if !sb.testAndSetFree(idx) {
		panic(fmt.Sprintf("superblock %#x: double free of block %d (%#x)", sb.Base(), idx, uint64(p)))
	}
}

// ClaimCached clears the free bit of a thread-cached block as the cache
// hands it to the application, without the owning heap's lock. A clear bit
// means the block is already in the application's hands, and it panics
// rather than hand the block out twice.
func (sb *Superblock) ClaimCached(p alloc.Ptr) {
	idx := sb.indexOf(p)
	if !sb.testAndClearFree(idx) {
		panic(fmt.Sprintf("superblock %#x: cached block %d (%#x) handed out twice", sb.Base(), idx, uint64(p)))
	}
}

// TryPop is AllocBlock behind the signature the benchmark's superblock
// replay (perfbench/layers.go) times: ok is false when the superblock is
// full, and retries is always zero. The caller holds the owning heap's lock.
func (sb *Superblock) TryPop(e env.Env) (p alloc.Ptr, ok bool, retries int) {
	p, ok = sb.AllocBlock(e)
	return p, ok, 0
}

// FastFree is FreeBlock behind the signature the benchmark's superblock
// replay times: ok is always true, wasEmpty reports whether the free list
// was empty before the push, and retries is always zero. The caller holds
// the owning heap's lock.
func (sb *Superblock) FastFree(e env.Env, p alloc.Ptr) (ok, wasEmpty bool, retries int) {
	wasEmpty = sb.head == 0
	sb.FreeBlock(e, p)
	return true, wasEmpty, 0
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

// indexOf returns p's block index, panicking unless p is a block boundary
// inside sb. One 32-bit division serves both the index and the boundary
// check; it runs on every magazine operation.
func (sb *Superblock) indexOf(p alloc.Ptr) int {
	off := uint64(p) - sb.span.Base // wraps past size when p < Base
	if off < uint64(sb.size) {
		idx := uint32(off) / uint32(sb.blockSize)
		if idx*uint32(sb.blockSize) == uint32(off) && int(idx) < sb.nBlocks {
			return int(idx)
		}
	}
	panic(fmt.Sprintf("superblock %#x: bad block pointer %#x", sb.Base(), uint64(p)))
}

func (sb *Superblock) isFree(idx int) bool {
	return atomic.LoadUint64(&sb.freeBits[idx/64])&(1<<(idx%64)) != 0
}

// IsFreeBlock reports whether p's free bit is set: the block is listed,
// uncarved, or thread-cached. p must be a block of sb.
func (sb *Superblock) IsFreeBlock(p alloc.Ptr) bool { return sb.isFree(sb.indexOf(p)) }

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

// CheckIntegrity validates the free list, bitmap, and counters of a
// superblock none of whose blocks is thread-cached. The superblock must be
// quiescent.
func (sb *Superblock) CheckIntegrity() error {
	return sb.checkIntegrity(0, false)
}

// CheckIntegrityCached is CheckIntegrity for a superblock of which cached
// blocks sit in thread caches: its set free bits must equal its listed,
// uncarved and cached blocks. The superblock must be quiescent.
func (sb *Superblock) CheckIntegrityCached(cached int) error {
	return sb.checkIntegrity(cached, false)
}

// CheckIntegrityOnline is CheckIntegrity for a superblock whose owner heap's
// lock is held while thread caches elsewhere may flip the free bits of
// blocks they hold. The free list is checked in full; the bitmap-versus-
// counter comparison is skipped, because the number of cached blocks is
// not known under one lock.
func (sb *Superblock) CheckIntegrityOnline() error {
	return sb.checkIntegrity(0, true)
}

func (sb *Superblock) checkIntegrity(cached int, online bool) error {
	if sb.span == nil {
		return fmt.Errorf("superblock: released but still reachable")
	}
	head, used := sb.head, sb.used
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
		cur = int(sb.links[idx])
	}
	if want := sb.carved - used; listed != want {
		return fmt.Errorf("superblock %#x: %d blocks on free list, want %d (carved %d, used %d)",
			sb.Base(), listed, want, sb.carved, used)
	}
	if online {
		return nil
	}
	freeBits := 0
	for i := 0; i < sb.nBlocks; i++ {
		if sb.isFree(i) {
			freeBits++
		}
	}
	if want := sb.nBlocks - used + cached; freeBits != want {
		return fmt.Errorf("superblock %#x: bitmap says %d free, want %d (%d listed or uncarved, %d cached)",
			sb.Base(), freeBits, want, sb.nBlocks-used, cached)
	}
	return nil
}
