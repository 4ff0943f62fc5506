// Package dlheap implements a Doug Lea-style serial allocator: binned free
// lists over boundary-tagged chunks with immediate coalescing, all under
// one lock.
//
// This is the design of dlmalloc — the de facto serial malloc of the
// 1990s and the allocator ptmalloc wrapped with arenas — and it rounds out
// the taxonomy with a baseline whose *policy* differs from the superblock
// allocators: memory is a single address-ordered chunk sequence, frees
// coalesce with both neighbors immediately, and allocation splits the
// first sufficiently large chunk from a geometric size bin. Compared to
// Hoard it shares the serial allocator's fate on multiprocessors (one
// lock, line-adjacent blocks to different threads) but exhibits classical
// low fragmentation on size-mixed workloads.
//
// Chunk layout in simulated memory (all fields little-endian uint64):
//
//	a+0:  size | inUse flag (bit 0); size includes the 16-byte header
//	a+8:  size of the previous chunk in the segment (0 for the first)
//	a+16: user data (in use) / fd,bk free-list links (free)
//
// Free chunks need >= 16 bytes of body for the links, so the minimum chunk
// is 32 bytes. Segments are 256 KiB spans from the simulated OS; requests
// too large to bin get dedicated spans, like every allocator here.
package dlheap

import (
	"encoding/binary"
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/vm"
)

const (
	headerSize = 16
	minChunk   = 32
	// SegmentSize is the unit requested from the simulated OS.
	SegmentSize = 256 * 1024
	// largeThreshold: requests whose chunk would exceed this go straight
	// to the OS (dlmalloc's mmap threshold, scaled to the segment size).
	largeThreshold = 32 * 1024

	inUseBit = 1
)

// segTag marks segments in the address space.
type segTag struct{}

// Allocator is the boundary-tag coalescing allocator.
type Allocator struct {
	space   vm.Backend
	classes *sizeclass.Table
	lock    env.Lock
	// bins[b] heads a doubly-linked list of free chunks whose size is in
	// [class(b), class(b+1)).
	bins []alloc.Ptr
	segs []*vm.Span // all segments, for integrity walks
	acct alloc.Accounting
}

// New creates a dlheap allocator.
func New(lf env.LockFactory) *Allocator {
	a := &Allocator{
		space:   vm.New(),
		classes: sizeclass.New(sizeclass.DefaultBase, minChunk, SegmentSize),
		lock:    lf.NewLock("dlheap"),
	}
	a.bins = make([]alloc.Ptr, a.classes.NumClasses())
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "dlheap" }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.space }

// NewThread implements alloc.Allocator (no per-thread state: serial heap).
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	return &alloc.Thread{ID: e.ThreadID(), Env: e}
}

// --- chunk field access (through simulated memory) ---

func (a *Allocator) word(addr uint64) uint64 {
	return binary.LittleEndian.Uint64(a.space.Bytes(addr, 8))
}

func (a *Allocator) setWord(addr, v uint64) {
	binary.LittleEndian.PutUint64(a.space.Bytes(addr, 8), v)
}

func (a *Allocator) chunkSize(c uint64) uint64   { return a.word(c) &^ inUseBit }
func (a *Allocator) chunkInUse(c uint64) bool    { return a.word(c)&inUseBit != 0 }
func (a *Allocator) prevSize(c uint64) uint64    { return a.word(c + 8) }
func (a *Allocator) setPrev(c, size uint64)      { a.setWord(c+8, size) }
func (a *Allocator) fd(c uint64) alloc.Ptr       { return alloc.Ptr(a.word(c + 16)) }
func (a *Allocator) bk(c uint64) alloc.Ptr       { return alloc.Ptr(a.word(c + 24)) }
func (a *Allocator) setFd(c uint64, p alloc.Ptr) { a.setWord(c+16, uint64(p)) }
func (a *Allocator) setBk(c uint64, p alloc.Ptr) { a.setWord(c+24, uint64(p)) }

func (a *Allocator) setHeader(c, size uint64, used bool) {
	v := size
	if used {
		v |= inUseBit
	}
	a.setWord(c, v)
}

// seg returns the chunk's segment bounds.
func (a *Allocator) seg(c uint64) (base, end uint64) {
	sp := a.space.Lookup(c)
	if sp == nil {
		panic(fmt.Sprintf("dlheap: chunk %#x outside any segment", c))
	}
	return sp.Base, sp.End()
}

// --- bins ---

// binFor returns the bin holding free chunks of the given size: the
// largest class whose size does not exceed it.
func (a *Allocator) binFor(size uint64) int {
	c, ok := a.classes.ClassFor(int(size))
	if !ok {
		return a.classes.NumClasses() - 1
	}
	if uint64(a.classes.Size(c)) > size {
		c--
	}
	return c
}

// pushBin inserts a free chunk at its bin's head.
func (a *Allocator) pushBin(e env.Env, c uint64) {
	b := a.binFor(a.chunkSize(c))
	head := a.bins[b]
	a.setFd(c, head)
	a.setBk(c, 0)
	if !head.IsNil() {
		a.setBk(uint64(head), alloc.Ptr(c))
	}
	a.bins[b] = alloc.Ptr(c)
	e.Touch(c, headerSize+16, true)
}

// unlinkBin removes a free chunk from its bin.
func (a *Allocator) unlinkBin(e env.Env, c uint64) {
	b := a.binFor(a.chunkSize(c))
	f, k := a.fd(c), a.bk(c)
	if k.IsNil() {
		a.bins[b] = f
	} else {
		a.setFd(uint64(k), f)
	}
	if !f.IsNil() {
		a.setBk(uint64(f), k)
	}
	e.Touch(c, headerSize+16, false)
}

// --- allocation ---

// chunkFor rounds a request to a chunk size.
func chunkFor(size int) uint64 {
	n := uint64(size) + headerSize
	if n < minChunk {
		n = minChunk
	}
	return (n + 7) &^ 7
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	e := t.Env
	if size < 0 {
		panic(fmt.Sprintf("dlheap: Malloc(%d)", size))
	}
	need := chunkFor(size)
	if need > largeThreshold {
		return alloc.MallocLarge(a.space, &a.acct, e, size)
	}
	a.lock.Lock(e)
	c := a.takeChunk(e, need)
	a.lock.Unlock(e)
	e.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(int(a.chunkSize(c)) - headerSize)
	return alloc.Ptr(c + headerSize)
}

// MallocAligned is Malloc with the returned pointer a multiple of align, a
// power of two up to the page size. Chunks are only 8-byte aligned, so a
// stronger alignment takes the page-aligned large-object path at any size.
func (a *Allocator) MallocAligned(t *alloc.Thread, size, align int) alloc.Ptr {
	if align <= 0 || align&(align-1) != 0 || align > vm.PageSize {
		panic(fmt.Sprintf("dlheap: MallocAligned align %d not a power of two up to the page size", align))
	}
	if align <= 8 || size < 0 {
		return a.Malloc(t, size) // which panics on a negative size
	}
	return alloc.MallocLarge(a.space, &a.acct, t.Env, max(size, 1))
}

// takeChunk finds, splits, and marks a chunk of at least need bytes.
// Called with the lock held.
//
// The search starts one bin below the exact class: bins hold chunks in
// [class(b), class(b+1)), so the bin *containing* need may still hold
// larger-than-need chunks. Every candidate is fit-checked regardless.
func (a *Allocator) takeChunk(e env.Env, need uint64) uint64 {
	start := a.binFor(need)
	for b := start; b < len(a.bins); b++ {
		e.Charge(env.OpListScan, 1)
		for p := a.bins[b]; !p.IsNil(); p = a.fd(uint64(p)) {
			c := uint64(p)
			if a.chunkSize(c) >= need {
				a.unlinkBin(e, c)
				a.split(e, c, need)
				return c
			}
			e.Charge(env.OpListScan, 1)
		}
	}
	// No fit: a fresh segment, formatted as one big free chunk.
	e.Charge(env.OpMallocSlow, 1)
	e.Charge(env.OpOSAlloc, 1)
	sp := a.space.Reserve(SegmentSize, vm.PageSize, &segTag{})
	a.segs = append(a.segs, sp)
	c := sp.Base
	a.setHeader(c, uint64(sp.Len), false)
	a.setPrev(c, 0)
	a.split(e, c, need)
	return c
}

// split carves need bytes off chunk c (marking them in use) and returns the
// remainder, if any, to the bins. Called with the lock held; c must be
// unlinked.
func (a *Allocator) split(e env.Env, c, need uint64) {
	total := a.chunkSize(c)
	rest := total - need
	if rest < minChunk {
		need, rest = total, 0
	}
	a.setHeader(c, need, true)
	e.Touch(c, headerSize, true)
	if rest > 0 {
		r := c + need
		a.setHeader(r, rest, false)
		a.setPrev(r, need)
		a.fixNextPrev(e, r, rest)
		a.pushBin(e, r)
	} else {
		a.fixNextPrev(e, c, need)
	}
}

// fixNextPrev updates the following chunk's prevSize after c changed size.
func (a *Allocator) fixNextPrev(e env.Env, c, size uint64) {
	_, end := a.seg(c)
	if n := c + size; n < end {
		a.setPrev(n, size)
		e.Touch(n, headerSize, true)
	}
}

// Free implements alloc.Allocator: coalesce with free neighbors, rebin.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	e := t.Env
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("dlheap: free of unknown pointer %#x", uint64(p)))
	}
	if _, isLarge := sp.Owner.(*alloc.LargeObj); isLarge {
		alloc.FreeLarge(a.space, &a.acct, e, "dlheap", sp, p)
		return
	}
	c := uint64(p) - headerSize
	if c < sp.Base || (uint64(p)-sp.Base-headerSize)%8 != 0 {
		panic(fmt.Sprintf("dlheap: free of misaligned pointer %#x", uint64(p)))
	}
	a.freeChunk(e, sp, c, p)
	e.Charge(env.OpFree, 1)
	e.Charge(env.OpListScan, 2) // boundary-tag inspection of both neighbors
}

// freeChunk coalesces chunk c with its free neighbors and rebins it under
// the heap lock, which it releases also when the free panics on a double
// free or a pointer that names no chunk, so the heap stays usable. Both
// panic before anything changes.
func (a *Allocator) freeChunk(e env.Env, sp *vm.Span, c uint64, p alloc.Ptr) {
	a.lock.Lock(e)
	defer a.lock.Unlock(e)
	if !a.chunkInUse(c) {
		panic(fmt.Sprintf("dlheap: double free of %#x", uint64(p)))
	}
	size := a.chunkSize(c)
	base, end := sp.Base, sp.End()
	if !a.isChunk(c, size, base, end) {
		panic(fmt.Sprintf("dlheap: free of %#x, which names no chunk (an interior pointer)", uint64(p)))
	}
	a.acct.OnFree(int(size) - headerSize)

	// Coalesce with the next chunk.
	if n := c + size; n < end && !a.chunkInUse(n) {
		e.Touch(n, headerSize, false)
		a.unlinkBin(e, n)
		size += a.chunkSize(n)
	}
	// Coalesce with the previous chunk.
	if prev := a.prevSize(c); c > base && prev != 0 {
		pc := c - prev
		if !a.chunkInUse(pc) {
			e.Touch(pc, headerSize, false)
			a.unlinkBin(e, pc)
			// c's header is now inside pc's body. Marked free, a second
			// free of c fails as a double free.
			a.setHeader(c, a.chunkSize(c), false)
			c = pc
			size += prev
		}
	}
	a.setHeader(c, size, false)
	a.fixNextPrev(e, c, size)
	a.pushBin(e, c)
}

// isChunk reports whether c, whose header says size, is a chunk of the
// segment [base, end): the size fits the segment, and the boundary tags on
// both sides agree with it, the checks glibc's free makes before it trusts
// a header ("invalid size", "invalid next size"). A pointer inside a chunk
// finds user data where the header would be, which fails them unless it
// forges all three tags.
func (a *Allocator) isChunk(c, size, base, end uint64) bool {
	if size < minChunk || size%8 != 0 || size > end-c {
		return false
	}
	if n := c + size; n < end && a.prevSize(n) != size {
		return false
	}
	prev := a.prevSize(c)
	if c == base {
		return prev == 0
	}
	return prev != 0 && prev <= c-base && a.chunkSize(c-prev) == prev
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(p alloc.Ptr) int {
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("dlheap: UsableSize of unknown pointer %#x", uint64(p)))
	}
	if lo, isLarge := sp.Owner.(*alloc.LargeObj); isLarge {
		return lo.Size
	}
	c := uint64(p) - headerSize
	return int(a.chunkSize(c)) - headerSize
}

// Bytes implements alloc.Allocator.
func (a *Allocator) Bytes(p alloc.Ptr, n int) []byte {
	if n > a.UsableSize(p) {
		panic(fmt.Sprintf("dlheap: Bytes(%#x, %d) exceeds usable size", uint64(p), n))
	}
	return a.space.Bytes(uint64(p), n)
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats {
	var st alloc.Stats
	a.acct.Fill(&st)
	st.OSReserves = a.space.Stats().Reserves
	return st
}

// FreeChunks walks the bins and returns the count and total bytes of free
// chunks (requires quiescence); used by tests to verify coalescing.
func (a *Allocator) FreeChunks() (count int, bytes uint64) {
	for _, head := range a.bins {
		for p := head; !p.IsNil(); p = a.fd(uint64(p)) {
			count++
			bytes += a.chunkSize(uint64(p))
		}
	}
	return count, bytes
}

// CheckIntegrity implements alloc.Allocator: every segment must be a valid
// chunk sequence with consistent boundary tags; bins must hold exactly the
// free chunks; no two adjacent free chunks may exist (immediate coalescing).
func (a *Allocator) CheckIntegrity() error {
	// Gather bin membership.
	inBin := make(map[uint64]bool)
	for b, head := range a.bins {
		for p := head; !p.IsNil(); p = a.fd(uint64(p)) {
			c := uint64(p)
			if inBin[c] {
				return fmt.Errorf("dlheap: chunk %#x linked twice", c)
			}
			inBin[c] = true
			if got := a.binFor(a.chunkSize(c)); got != b {
				return fmt.Errorf("dlheap: chunk %#x (size %d) in bin %d, want %d", c, a.chunkSize(c), b, got)
			}
		}
	}
	var liveBytes int64
	for _, sp := range a.segs {
		base, end := sp.Base, sp.End()
		var prev uint64
		prevFree := false
		for c := base; c < end; {
			size := a.chunkSize(c)
			if size < minChunk || c+size > end {
				return fmt.Errorf("dlheap: chunk %#x has invalid size %d", c, size)
			}
			if got := a.prevSize(c); got != prev {
				return fmt.Errorf("dlheap: chunk %#x prevSize %d, want %d", c, got, prev)
			}
			free := !a.chunkInUse(c)
			if free {
				if prevFree {
					return fmt.Errorf("dlheap: adjacent free chunks at %#x (coalescing failed)", c)
				}
				if !inBin[c] {
					return fmt.Errorf("dlheap: free chunk %#x not in any bin", c)
				}
				delete(inBin, c)
			} else {
				liveBytes += int64(size) - headerSize
			}
			prev = size
			prevFree = free
			c += size
		}
	}
	if len(inBin) != 0 {
		return fmt.Errorf("dlheap: %d binned chunks not found in any segment", len(inBin))
	}
	// Large objects are exactly the committed bytes outside segments.
	large := a.space.Committed() - int64(len(a.segs))*SegmentSize
	if got := a.acct.Live(); got != liveBytes+large {
		return fmt.Errorf("dlheap: live gauge %d, segments say %d + large %d", got, liveBytes, large)
	}
	return nil
}
