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
// its counters change only under the owning heap's lock. The links live in a
// side array, not in block memory, so no byte of a live block is ever
// written but by the application; the one write to block memory is Warm's,
// which a thread cache's refill may run to zero the first word of a free
// block of at most one cache line it alone holds. The cache-model Touch
// charges stay on the block addresses, so the simulated cost of walking the
// list is the same. The same array holds each block's free state, which
// detects double frees and supports integrity checking: a block's entry is
// the reserved value held while the application holds it, and anything else
// while it is free — listed, uncarved, or out of the superblock on its way
// to or from the application (DESIGN.md §11), which is how a double free
// into a thread cache still fails at the call. Every path keeps one
// contract: a run taken from the superblock stays marked free until whoever
// hands a block to the application claims it (ClaimCached), and a block
// comes back already marked free (MarkCached) for the owner heap to push
// (FreeCached). Only a block's holder writes its entry, with plain loads and
// stores.
package superblock

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/vm"
)

// DefaultSize is the paper implementation's superblock size S (8 KiB).
const DefaultSize = 8192

// Superblock manages one S-byte span of blocks of a single size class.
//
// Locking: everything except the free states of blocks out of the
// superblock, ownerID and the format fields read by a freeing thread is
// protected by the owning heap's lock. A block out of the superblock has one
// holder — the application, a thread cache, or the thread carrying it
// between a heap and the application — and only it reads or writes the
// block's state, without that lock (MarkCached, ClaimCached); every hand-off
// of a block, to or from the heap or between threads, already carries a
// happens-before edge. ownerID is atomic because the free path must read it
// before taking that lock (and re-check it after, since ownership can
// change while waiting).
type Superblock struct {
	span      *vm.Span
	base      uint64 // span.Base, cached for blockIndex
	size      int    // S
	class     int
	blockSize int
	nBlocks   int
	// recip is ceil(2^64/blockSize): blockIndex divides by multiplying by it.
	recip uint64

	head   int // idx+1 of the free list's top block, 0 = empty list
	used   int // blocks out of the superblock: held or marked free
	carved int // blocks at index >= carved have never been allocated

	// links holds each block's free state: held while the application
	// holds block i, and any other value while it is free. For a listed
	// block that value is the idx+1 of the block after it (0 = end of
	// list); an uncarved block, or a free one out of the superblock, keeps
	// a stale one. No entry is held while used is 0, so a reformat need not
	// rewrite the array. Keeping the links out of block memory leaves every
	// byte of a live block to the application.
	links []uint32

	ownerID atomic.Int32

	// Next and Prev link the superblock into its heap's fullness-group
	// list for its size class. Group is the list it is currently on, and
	// Touched marks it during a batch free so it is regrouped once. All
	// four are managed exclusively by the owning heap.
	Next, Prev *Superblock
	Group      int
	Touched    bool
}

// Block is one block out of a superblock together with that superblock: the
// record a thread cache keeps per cached block and a batch transfer moves, so
// neither ever looks a block up.
type Block struct {
	P  alloc.Ptr
	SB *Superblock
}

// held is the links entry of a block in the application's hands; no link
// (an idx+1 at most nBlocks) takes this value.
const held = ^uint32(0)

// New reserves a fresh size-byte, size-aligned span from space and formats
// it as a superblock of the given class and block size. blockSize must be a
// positive multiple of 8 no larger than size.
func New(space vm.Backend, size, class, blockSize int) *Superblock {
	if blockSize <= 0 || blockSize%8 != 0 || blockSize > size {
		panic(fmt.Sprintf("superblock: bad block size %d for S=%d", blockSize, size))
	}
	sb := &Superblock{size: size}
	sb.span = space.Reserve(size, size, sb)
	sb.base = sb.span.Base
	sb.format(class, blockSize)
	return sb
}

// format initializes block bookkeeping for a (possibly recycled) superblock
// with no blocks out.
func (sb *Superblock) format(class, blockSize int) {
	if sb.span.Decommitted() {
		panic(fmt.Sprintf("superblock %#x: format while decommitted (missing Recommit)", sb.base))
	}
	sb.class = class
	sb.blockSize = blockSize
	sb.nBlocks = sb.size / blockSize
	sb.recip = ^uint64(0)/uint64(blockSize) + 1
	if cap(sb.links) < sb.nBlocks {
		sb.links = make([]uint32, sb.nBlocks)
	}
	sb.links = sb.links[:sb.nBlocks]
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
	if sb.span.Decommitted() {
		panic(fmt.Sprintf("superblock %#x: double Decommit", sb.Base()))
	}
	sb.head, sb.carved = 0, 0
	e.Charge(env.OpOSAlloc, 1)
	sb.span.Decommit()
}

// Recommit restores the superblock's backing pages after a Decommit so its
// blocks can be handed out again; a no-op if the superblock is committed.
// The caller holds the owning heap's lock.
func (sb *Superblock) Recommit(e env.Env) {
	if !sb.span.Decommitted() {
		return
	}
	e.Charge(env.OpOSAlloc, 1)
	sb.span.Recommit()
}

// Decommitted reports whether the superblock's pages are currently dropped.
func (sb *Superblock) Decommitted() bool { return sb.span.Decommitted() }

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

// Full reports whether every block is out.
func (sb *Superblock) Full() bool { return sb.used == sb.nBlocks }

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
func (sb *Superblock) Base() uint64 { return sb.base }

// pop takes a block out of the superblock, preferring recently freed blocks
// (LIFO) for locality, then carving never-used blocks. listed reports a
// block taken off the free list, the pop that reads the block's link; the
// caller charges that read as a Touch of the block in a simulated env. ok
// is false when the superblock is full. The caller holds the owning heap's
// lock.
func (sb *Superblock) pop() (idx int, listed, ok bool) {
	switch {
	case sb.head != 0:
		idx = sb.head - 1
		sb.head = int(sb.links[idx])
		listed = true
	case sb.carved < sb.nBlocks:
		idx = sb.carved
		sb.carved++
	default:
		return 0, false, false
	}
	sb.used++
	return idx, listed, true
}

// AllocBlock allocates a block to the application: a run of one, claimed.
// ok is false when the superblock is full. The caller holds the owning
// heap's lock.
func (sb *Superblock) AllocBlock(e env.Env) (p alloc.Ptr, ok bool) {
	var one [1]Block
	if sb.AllocRun(e, one[:]) == 0 {
		return 0, false
	}
	sb.ClaimCached(one[0].P)
	return one[0].P, true
}

// AllocRun pops up to len(out) blocks into out, each with sb, in the order
// single pops would take them, and returns how many it took (fewer only when
// the superblock fills). The blocks stay marked free: whoever hands one to
// the application claims it then (ClaimCached), so a run can go to a thread
// cache or straight to the caller alike. The caller holds the owning heap's
// lock.
func (sb *Superblock) AllocRun(e env.Env, out []Block) int {
	sim := env.Simulated(e)
	for i := range out {
		idx, listed, ok := sb.pop()
		if !ok {
			return i
		}
		if listed && sim {
			// The Touch models reading the block's link — the access
			// where an allocator picks up a cache line the freeing
			// thread wrote (passive false sharing's mechanism).
			e.Touch(sb.addrOf(idx), 4, false)
		}
		if sb.links[idx] == held {
			panic(fmt.Sprintf("superblock %#x: free-list/state mismatch at block %d", sb.Base(), idx))
		}
		out[i] = Block{alloc.Ptr(sb.addrOf(idx)), sb}
	}
	return len(out)
}

// Warm stores zero to the first word of each block of run, a run a thread
// cache has just taken (AllocRun) and holds alone, so each block's first
// cache line arrives owned by the calling core ahead of the program's first
// write to it. A free block's contents are unspecified, so the store
// changes nothing the program may read; a held block is never written. The
// loop makes no call per block: (*Span).Bytes compiles inline.
func Warm(run []Block) {
	for _, b := range run {
		sb := b.SB
		binary.LittleEndian.PutUint64(sb.span.Bytes(int(uint64(b.P)-sb.base), 8), 0)
	}
}

// FreeCached pushes a block that came back marked free (MarkCached) onto the
// free list, so a held one means the block came back twice. The caller
// holds the owning heap's lock and, in a simulated env, charges a Touch of
// the block after the call: the write of its link, which dirties the
// block's cache line in the freeing thread's cache — the other half of the
// false-sharing mechanism. It compiles inline, so a flush makes no call per
// block.
func (sb *Superblock) FreeCached(p alloc.Ptr) {
	idx, ok := sb.blockIndex(p)
	if !ok || sb.links[idx] == held {
		panic(misuse{sb, p, opFlush})
	}
	sb.links[idx] = uint32(sb.head)
	sb.head = idx + 1
	sb.used--
}

// MarkCached marks an application-held block free as the application frees
// it, with a plain load and store and before any lock is taken. It panics on
// a bad pointer and on a double free — a block already listed, uncarved, or
// out of the superblock marked free — so a double free fails at the call
// even when the first free went no further than a thread cache. Two frees of
// one block that are not ordered by happens-before are a data race, as in
// any allocator. It compiles inline into the magazine's free.
func (sb *Superblock) MarkCached(p alloc.Ptr) {
	idx, ok := sb.blockIndex(p)
	if !ok || sb.links[idx] != held {
		panic(misuse{sb, p, opFree})
	}
	sb.links[idx] = 0
}

// ClaimCached marks a block out of the superblock (AllocRun) held as it is
// handed to the application, with a plain load and store and without the
// owning heap's lock. A held block is already in the application's hands,
// and it panics rather than hand the block out twice. It compiles inline
// into the magazine's malloc.
func (sb *Superblock) ClaimCached(p alloc.Ptr) {
	idx, ok := sb.blockIndex(p)
	if !ok || sb.links[idx] == held {
		panic(misuse{sb, p, opClaim})
	}
	sb.links[idx] = held
}

// TryPop is AllocBlock behind the signature the benchmark's superblock
// replay (perfbench/layers.go) times: ok is false when the superblock is
// full, and retries is always zero. The caller holds the owning heap's lock.
func (sb *Superblock) TryPop(e env.Env) (p alloc.Ptr, ok bool, retries int) {
	p, ok = sb.AllocBlock(e)
	return p, ok, 0
}

// FastFree frees an application-held block (MarkCached, then FreeCached)
// behind the signature the benchmark's superblock replay times: ok is always
// true, wasEmpty reports whether the free list was empty before the push,
// and retries is always zero. The caller holds the owning heap's lock.
func (sb *Superblock) FastFree(e env.Env, p alloc.Ptr) (ok, wasEmpty bool, retries int) {
	wasEmpty = sb.head == 0
	sb.MarkCached(p)
	e.Touch(uint64(p), 4, true)
	sb.FreeCached(p)
	return true, wasEmpty, 0
}

// Contains reports whether p points at a block boundary inside sb.
func (sb *Superblock) Contains(p alloc.Ptr) bool {
	_, ok := sb.blockIndex(p)
	return ok
}

func (sb *Superblock) addrOf(idx int) uint64 {
	return sb.base + uint64(idx*sb.blockSize)
}

// op names the flip a misuse panicked in, which picks its message.
type op uint8

const (
	opFree  op = iota // MarkCached: the block must be held
	opClaim           // ClaimCached: the block must be free
	opFlush           // FreeCached: the block must be free
)

// wrongState is the message of each op's misuse of a block in the wrong
// state, from the superblock's base, the block index and the pointer.
var wrongState = [...]string{
	opFree:  "superblock %#x: double free of block %d (%#x)",
	opClaim: "superblock %#x: cached block %d (%#x) handed out twice",
	opFlush: "superblock %#x: cached block %d (%#x) is not marked free",
}

// misuse is the panic value of a misused block pointer: p, passed to op on
// sb. Building it costs two words and a byte, which leaves the flips cheap
// enough to inline into the magazine paths. Error works out which misuse it
// was, from sb as it is formatted then: a bad block pointer, or a block in
// the wrong state for op.
type misuse struct {
	sb *Superblock
	p  alloc.Ptr
	op op
}

func (m misuse) Error() string {
	idx, ok := m.sb.blockIndex(m.p)
	if !ok {
		return fmt.Sprintf("superblock %#x: bad block pointer %#x", m.sb.base, uint64(m.p))
	}
	return fmt.Sprintf(wrongState[m.op], m.sb.base, idx, uint64(m.p))
}

// blockIndex returns p's block index, and whether p is a block boundary
// inside sb; the index means nothing when it is not. It is the one index
// check of every flip and free, and divides without a divide instruction
// (Lemire, Kaser & Kurz, "Faster remainder by direct computation", 2019):
// with recip = ceil(2^64/blockSize), for an off below 2^32 (S is far below
// 4 GiB) the high word of recip*off is off/blockSize, and the low word is
// below recip exactly when blockSize divides off. The high word is never
// below off/blockSize, so an index below len(links) puts off below S, where
// both hold, also for an off that wrapped below the base.
func (sb *Superblock) blockIndex(p alloc.Ptr) (int, bool) {
	idx, rem := bits.Mul64(sb.recip, uint64(p)-sb.base)
	return int(idx), rem < sb.recip && idx < uint64(len(sb.links))
}

// IsFreeBlock reports whether p is a block of sb that is free: listed,
// uncarved, or thread-cached. The caller must be ordered after p's last
// holder (a quiescent check).
func (sb *Superblock) IsFreeBlock(p alloc.Ptr) bool {
	idx, ok := sb.blockIndex(p)
	return ok && sb.links[idx] != held
}

// CheckIntegrity validates the free list, free states, and counters of a
// superblock none of whose blocks is thread-cached. The superblock must be
// quiescent.
func (sb *Superblock) CheckIntegrity() error {
	return sb.checkIntegrity(0, false)
}

// CheckIntegrityCached is CheckIntegrity for a superblock of which cached
// blocks sit in thread caches: its free blocks must be exactly its listed,
// uncarved and cached ones. The superblock must be quiescent.
func (sb *Superblock) CheckIntegrityCached(cached int) error {
	return sb.checkIntegrity(cached, false)
}

// CheckIntegrityOnline is CheckIntegrity for a superblock whose owner heap's
// lock is held while the holders of its other blocks, thread caches and the
// application, may change their states. It reads only the states of listed
// blocks, which only the lock holder writes: the free list is checked in
// full, and the count of free states against the counters is skipped.
func (sb *Superblock) CheckIntegrityOnline() error {
	return sb.checkIntegrity(0, true)
}

func (sb *Superblock) checkIntegrity(cached int, online bool) error {
	head, used := sb.head, sb.used
	if sb.span.Decommitted() {
		// A decommitted superblock's only consistent shape is the pristine
		// empty one.
		if used != 0 || head != 0 || sb.carved != 0 {
			return fmt.Errorf("superblock %#x: decommitted but used %d head %d carved %d",
				sb.Base(), used, head, sb.carved)
		}
		return nil
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
		if sb.links[idx] == held {
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
	free := 0
	for _, state := range sb.links {
		if state != held {
			free++
		}
	}
	if want := sb.nBlocks - used + cached; free != want {
		return fmt.Errorf("superblock %#x: %d blocks marked free, want %d (%d listed or uncarved, %d cached)",
			sb.Base(), free, want, sb.nBlocks-used, cached)
	}
	return nil
}
