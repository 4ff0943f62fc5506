// Package lockedheap implements three rows of the paper's allocator
// taxonomy (§2) as one allocator: the serial single heap, the concurrent
// single heap, and private heaps with ownership. Each is a set of
// lock-protected heaps of superblocks that never evict, and a free always
// returns its block to the heap that owns the block's superblock, whichever
// thread frees it. The three differ only in which heap a malloc locks:
//
//   - serial (Solaris malloc): one heap under one lock. Every malloc and
//     free serializes on it, and consecutive blocks of a superblock go to
//     whichever threads call malloc, so it actively induces false sharing.
//   - concurrent (Iyengar, Johnson & Davis): one heap per size class, each
//     with its own lock, so threads allocating different sizes proceed in
//     parallel. Same-class mallocs still serialize and still share lines,
//     but one shared heap never blows up.
//   - ownership (ptmalloc's arenas, Solaris MTmalloc): a thread tries its
//     home arena; if that lock is taken it steals the first other arena
//     whose lock is free, and blocks on its home arena only when every
//     arena is busy. Producer-consumer memory returns to the producer's
//     arena, so blowup is bounded, but only by O(P): memory freed in one
//     arena never satisfies a malloc bound to another (paper §2.2), and
//     arenas never shed superblocks. Hoard's global heap removes both
//     limitations.
//
// The heaps reuse the superblock machinery Hoard uses (segregated size
// classes, fullness groups), so measured differences come from the
// architecture, not the data structures.
package lockedheap

import (
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// Allocator is a set of lock-protected heaps with one heap-choice rule.
type Allocator struct {
	name    string
	space   vm.Backend
	classes *sizeclass.Table
	heaps   []*heap.Heap
	// lockHeap is the heap-choice rule: it locks and returns the heap a
	// malloc of class draws from, for a thread whose home heap is home.
	lockHeap func(e env.Env, home, class int) *heap.Heap
	// freeScans is the OpListScan charge of each small free, made under
	// the owning heap's lock.
	freeScans int64
	acct      alloc.Accounting
}

// threadState holds a thread's home heap, which only the ownership rule
// consults.
type threadState struct{ home int }

// newAllocator builds n heaps, heap i locked by a lock named lockName(i).
// The heaps never evict, so their emptiness parameters are inert; 0.5/0
// are placeholders.
func newAllocator(name string, n func(classes int) int, lockName func(i int) string, lf env.LockFactory) *Allocator {
	classes := sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, superblock.DefaultSize/2)
	a := &Allocator{name: name, space: vm.New(), classes: classes}
	a.heaps = make([]*heap.Heap, n(classes.NumClasses()))
	for i := range a.heaps {
		a.heaps[i] = heap.New(i, superblock.DefaultSize, 0.5, 0, classes.NumClasses(), lf.NewLock(lockName(i)))
	}
	return a
}

// NewSerial creates the serial single-heap allocator: one heap, taken
// with a plain Lock.
func NewSerial(lf env.LockFactory) *Allocator {
	a := newAllocator("serial", func(int) int { return 1 },
		func(int) string { return "serial.heap" }, lf)
	a.lockHeap = func(e env.Env, _, _ int) *heap.Heap {
		h := a.heaps[0]
		h.Lock.Lock(e)
		return h
	}
	return a
}

// NewConcurrent creates the concurrent single-heap allocator: one heap per
// size class, whose heap ID is the class.
func NewConcurrent(lf env.LockFactory) *Allocator {
	a := newAllocator("concurrent", func(classes int) int { return classes },
		func(c int) string { return fmt.Sprintf("concurrent.class%d", c) }, lf)
	a.lockHeap = func(e env.Env, _, class int) *heap.Heap {
		h := a.heaps[class]
		h.Lock.Lock(e)
		return h
	}
	return a
}

// NewOwnership creates the private-heaps-with-ownership allocator with the
// given number of arenas. Ptmalloc grows its arena list up to a multiple of
// the CPU count; a fixed pool keyed by thread ID reproduces the same steady
// state. Each free also charges three list scans under the arena lock, for
// the boundary-tag coalescing a ptmalloc free does there and Hoard's O(1)
// free avoids.
func NewOwnership(arenas int, lf env.LockFactory) *Allocator {
	if arenas < 1 {
		panic(fmt.Sprintf("ownership: %d arenas", arenas))
	}
	a := newAllocator("ownership", func(int) int { return arenas },
		func(i int) string { return fmt.Sprintf("ownership.arena%d", i) }, lf)
	a.lockHeap = a.lockArena
	a.freeScans = 3
	return a
}

// lockArena is ptmalloc's rule: the home arena if its lock is free, else
// the first other arena whose lock is free, else the home arena after
// blocking.
func (a *Allocator) lockArena(e env.Env, home, _ int) *heap.Heap {
	h := a.heaps[home]
	if h.Lock.TryLock(e) {
		return h
	}
	for i := 1; i < len(a.heaps); i++ {
		e.Charge(env.OpListScan, 1)
		cand := a.heaps[(home+i)%len(a.heaps)]
		if cand.Lock.TryLock(e) {
			return cand
		}
	}
	h.Lock.Lock(e)
	return h
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.name }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.space }

// NewThread implements alloc.Allocator: a thread's home heap is its ID
// modulo the heap count.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	id := e.ThreadID()
	home := id % len(a.heaps)
	if home < 0 {
		home += len(a.heaps)
	}
	return &alloc.Thread{ID: id, Env: e, State: &threadState{home: home}}
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	e := t.Env
	if size > a.classes.MaxSize() {
		return alloc.MallocLarge(a.space, &a.acct, e, size)
	}
	class, _ := a.classes.ClassFor(size)
	blockSize := a.classes.Size(class)
	h := a.lockHeap(e, t.State.(*threadState).home, class)
	var b [1]superblock.Block
	if h.AllocRun(e, class, b[:]) == 0 {
		e.Charge(env.OpMallocSlow, 1)
		e.Charge(env.OpOSAlloc, 1)
		h.Insert(superblock.New(a.space, superblock.DefaultSize, class, blockSize))
		h.AllocRun(e, class, b[:])
	}
	h.Lock.Unlock(e)
	b[0].SB.ClaimCached(b[0].P)
	e.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(blockSize)
	return b[0].P
}

// Free implements alloc.Allocator: the block returns to the heap owning its
// superblock, regardless of the freeing thread.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	e := t.Env
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("%s: free of unknown pointer %#x", a.name, uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		alloc.FreeLarge(a.space, &a.acct, e, a.name, sp, p)
	case *superblock.Superblock:
		a.freeSmall(e, owner, p)
		e.Charge(env.OpFree, 1)
		a.acct.OnFree(owner.BlockSize())
	default:
		panic(fmt.Sprintf("%s: free of foreign pointer %#x", a.name, uint64(p)))
	}
}

// freeSmall marks the block free, which panics on misuse before any lock
// is taken, then pushes it under its owning heap's lock as a batch of one.
// The heaps never shed superblocks, so a heap that does not own it is a bug.
func (a *Allocator) freeSmall(e env.Env, sb *superblock.Superblock, p alloc.Ptr) {
	sb.MarkCached(p)
	h := a.heaps[sb.OwnerID()]
	b := [1]superblock.Block{{P: p, SB: sb}}
	var freed heap.Freed
	h.Lock.Lock(e)
	if h.FreeBatch(e, b[:], &freed) != 0 {
		panic(fmt.Sprintf("%s: free of %#x into heap %d, but heap %d owns its superblock", a.name, uint64(p), h.ID, sb.OwnerID()))
	}
	if a.freeScans != 0 {
		e.Charge(env.OpListScan, a.freeScans)
	}
	h.Lock.Unlock(e)
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(p alloc.Ptr) int {
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("%s: UsableSize of unknown pointer %#x", a.name, uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		return owner.Size
	case *superblock.Superblock:
		return owner.BlockSize()
	}
	panic(fmt.Sprintf("%s: UsableSize of foreign pointer %#x", a.name, uint64(p)))
}

// Bytes implements alloc.Allocator.
func (a *Allocator) Bytes(p alloc.Ptr, n int) []byte {
	if n > a.UsableSize(p) {
		panic(fmt.Sprintf("%s: Bytes(%#x, %d) exceeds usable size", a.name, uint64(p), n))
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

// CheckIntegrity implements alloc.Allocator: every heap is internally
// consistent, and the bytes in use across the heaps plus the large objects
// equal the live bytes the books hold.
func (a *Allocator) CheckIntegrity() error {
	var u, held int64
	for _, h := range a.heaps {
		if err := h.CheckIntegrity(); err != nil {
			return err
		}
		u += h.U()
		held += h.A()
	}
	large := a.space.Committed() - held
	if got := u + large; got != a.acct.Live() {
		return fmt.Errorf("%s: live accounting %d != heaps %d + large %d", a.name, a.acct.Live(), u, large)
	}
	return nil
}
