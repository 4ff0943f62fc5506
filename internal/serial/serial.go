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
	"sync/atomic"

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

	batchRefills  atomic.Int64
	batchFlushes  atomic.Int64
	batchedBlocks atomic.Int64
}

type largeObj struct{ size int }

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
		lo := &largeObj{}
		sp := a.space.Reserve(size, vm.PageSize, lo)
		lo.size = sp.Len
		e.Charge(env.OpOSAlloc, 1)
		e.Charge(env.OpMallocSlow, 1)
		a.acct.OnLarge()
		a.acct.OnMalloc(sp.Len)
		return alloc.Ptr(sp.Base)
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
	case *largeObj:
		if uint64(p) != sp.Base {
			panic(fmt.Sprintf("serial: free of interior large-object pointer %#x", uint64(p)))
		}
		a.acct.OnFree(owner.size)
		a.space.Release(sp)
		e.Charge(env.OpOSAlloc, 1)
		e.Charge(env.OpFree, 1)
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

// MallocBatch implements alloc.BatchAllocator: up to n same-size blocks
// carved under ONE acquisition of the single heap lock. On a serial
// allocator this is where batching pays the most — every thread's every
// operation serializes on that lock, so a magazine refill that used to take
// it Capacity/2 times now takes it once.
func (a *Allocator) MallocBatch(t *alloc.Thread, size, n int, out []alloc.Ptr) int {
	if n > len(out) {
		n = len(out)
	}
	if n <= 0 {
		return 0
	}
	e := t.Env
	if size > a.classes.MaxSize() {
		for i := 0; i < n; i++ {
			out[i] = a.Malloc(t, size)
		}
		return n
	}
	class, _ := a.classes.ClassFor(size)
	blockSize := a.classes.Size(class)
	a.h.Lock.Lock(e)
	for got := 0; got < n; {
		k, _ := a.h.AllocRun(e, class, out[got:n], false)
		if k == 0 {
			e.Charge(env.OpMallocSlow, 1)
			e.Charge(env.OpOSAlloc, 1)
			a.h.Insert(superblock.New(a.space, a.sbSize, class, blockSize))
		}
		got += k
	}
	a.h.Lock.Unlock(e)
	e.Charge(env.OpMallocBatch, 1)
	e.Charge(env.OpMallocFast, int64(n))
	a.acct.OnMallocN(n, int64(n)*int64(blockSize))
	a.batchRefills.Add(1)
	a.batchedBlocks.Add(int64(n))
	return n
}

// FreeBatch implements alloc.BatchAllocator: one page-table pass resolves
// the pointers (large objects are released inline), then every small block
// is freed under ONE acquisition of the heap lock via heap.FreeBatch, which
// regroups each touched superblock once. When a free panics on a misused
// pointer, the blocks freed before it are accounted and the lock released
// before the panic propagates.
func (a *Allocator) FreeBatch(t *alloc.Thread, ps []alloc.Ptr) {
	e := t.Env
	small := make([]alloc.Ptr, 0, len(ps))
	sbs := make([]*superblock.Superblock, 0, len(ps))
	for _, p := range ps {
		if p.IsNil() {
			continue
		}
		sp := a.space.Lookup(uint64(p))
		if sp == nil {
			panic(fmt.Sprintf("serial: free of unknown pointer %#x", uint64(p)))
		}
		switch owner := sp.Owner.(type) {
		case *largeObj:
			if uint64(p) != sp.Base {
				panic(fmt.Sprintf("serial: free of interior large-object pointer %#x", uint64(p)))
			}
			a.acct.OnFree(owner.size)
			a.space.Release(sp)
			e.Charge(env.OpOSAlloc, 1)
			e.Charge(env.OpFree, 1)
		case *superblock.Superblock:
			small = append(small, p)
			sbs = append(sbs, owner)
		default:
			panic(fmt.Sprintf("serial: free of foreign pointer %#x", uint64(p)))
		}
	}
	e.Charge(env.OpFreeBatch, 1)
	a.batchFlushes.Add(1)
	if len(small) == 0 {
		return
	}
	var freed heap.Freed
	a.h.Lock.Lock(e)
	defer func() {
		e.Charge(env.OpFree, int64(freed.Blocks))
		a.h.Lock.Unlock(e)
		a.acct.OnFreeN(freed.Blocks, freed.Bytes)
		a.batchedBlocks.Add(int64(freed.Blocks))
	}()
	// The one heap owns every superblock, so no block is left over.
	if rest := a.h.FreeBatch(e, small, sbs, false, nil, &freed); rest != 0 {
		panic(fmt.Sprintf("serial: %d batch-freed blocks in superblocks the heap does not own", rest))
	}
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(p alloc.Ptr) int {
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("serial: UsableSize of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *largeObj:
		return owner.size
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
	st.BatchRefills = a.batchRefills.Load()
	st.BatchFlushes = a.batchFlushes.Load()
	st.BatchedBlocks = a.batchedBlocks.Load()
	return st
}

// CheckIntegrity implements alloc.Allocator.
func (a *Allocator) CheckIntegrity() error {
	return a.h.CheckIntegrity()
}
