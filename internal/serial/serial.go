// Package serial implements the paper's first baseline: a serial,
// single-heap allocator in the mold of Solaris malloc.
//
// One lock protects one heap; every thread's malloc and free serialize on
// it. The structure reuses the superblock machinery (segregated size
// classes, fullness groups) so that per-operation costs are comparable to
// Hoard's and the measured differences are due to the architecture, not the
// data structures. Because consecutive blocks of a superblock are handed to
// whichever threads happen to call malloc, this allocator actively induces
// false sharing; because there is a single lock, it does not scale.
package serial

import (
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// Allocator is the serial single-heap allocator.
type Allocator struct {
	space   vm.Backend
	classes *sizeclass.Table
	sbSize  int
	h       *heap.Heap
	acct    alloc.Accounting
}

// New creates a serial allocator with superblock size sbSize (0 selects the
// default 8 KiB).
func New(sbSize int, lf env.LockFactory) *Allocator {
	if sbSize == 0 {
		sbSize = superblock.DefaultSize
	}
	classes := sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, sbSize/2)
	return &Allocator{
		space:   vm.New(),
		classes: classes,
		sbSize:  sbSize,
		// The serial heap never evicts, so the emptiness parameters
		// are inert; 0.5/0 are placeholders.
		h: heap.New(0, sbSize, 0.5, 0, classes.NumClasses(), lf.NewLock("serial.heap")),
	}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "serial" }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.space }

// NewThread implements alloc.Allocator. The serial allocator keeps no
// per-thread state.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	return &alloc.Thread{ID: e.ThreadID(), Env: e}
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	e := t.Env
	if size > a.classes.MaxSize() {
		return alloc.MallocLarge(a.space, &a.acct, e, size)
	}
	class, _ := a.classes.ClassFor(size)
	blockSize := a.classes.Size(class)
	a.h.Lock.Lock(e)
	p, ok := a.h.AllocBlock(e, class)
	if !ok {
		e.Charge(env.OpMallocSlow, 1)
		e.Charge(env.OpOSAlloc, 1)
		sb := superblock.New(a.space, a.sbSize, class, blockSize)
		a.h.Insert(sb)
		p, _ = a.h.AllocBlock(e, class)
	}
	a.h.Lock.Unlock(e)
	e.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(blockSize)
	return p
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	e := t.Env
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("serial: free of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		alloc.FreeLarge(a.space, &a.acct, e, "serial", sp, p)
	case *superblock.Superblock:
		a.freeSmall(e, owner, p)
		e.Charge(env.OpFree, 1)
		a.acct.OnFree(owner.BlockSize())
	default:
		panic(fmt.Sprintf("serial: free of foreign pointer %#x", uint64(p)))
	}
}

// freeSmall frees one block under the heap lock, which it releases also
// when the free panics on a misused pointer, so the heap stays usable.
func (a *Allocator) freeSmall(e env.Env, sb *superblock.Superblock, p alloc.Ptr) {
	a.h.Lock.Lock(e)
	defer a.h.Lock.Unlock(e)
	a.h.FreeBlock(e, sb, p)
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(p alloc.Ptr) int {
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("serial: UsableSize of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		return owner.Size
	case *superblock.Superblock:
		return owner.BlockSize()
	}
	panic(fmt.Sprintf("serial: UsableSize of foreign pointer %#x", uint64(p)))
}

// Bytes implements alloc.Allocator.
func (a *Allocator) Bytes(p alloc.Ptr, n int) []byte {
	if n > a.UsableSize(p) {
		panic(fmt.Sprintf("serial: Bytes(%#x, %d) exceeds usable size", uint64(p), n))
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

// CheckIntegrity implements alloc.Allocator.
func (a *Allocator) CheckIntegrity() error {
	return a.h.CheckIntegrity()
}
