// Package ownership implements the paper's strongest baseline family:
// private heaps *with ownership*, in the mold of Ptmalloc (Gloger's arena
// malloc, used by glibc) and Solaris MTmalloc.
//
// Memory is organized into arenas, each a lock-protected heap of
// superblocks. A thread is assigned a home arena; malloc tries the home
// arena and, if its lock is contended, steals any other arena whose lock is
// immediately available (ptmalloc's arena-cycling), creating up to the
// configured maximum. Crucially, free returns a block to the arena that
// *owns* its superblock, no matter which thread frees it — so, unlike pure
// private heaps, producer-consumer programs do not leak memory across
// arenas and blowup is bounded.
//
// The bound, however, is O(P): memory freed in arena A can never satisfy an
// allocation bound to arena B, so a program whose allocation phases shift
// across threads can consume P times its maximum live size (paper §2.2).
// And because arenas never shed superblocks, serially-reused memory stays
// put. Hoard's global heap is exactly what removes both limitations.
package ownership

import (
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// Config parameterizes the ownership allocator.
type Config struct {
	// SuperblockSize is the span size (0 selects 8 KiB).
	SuperblockSize int
	// Arenas is the number of arenas (0 selects 16). Ptmalloc grows its
	// arena list dynamically up to a multiple of the CPU count; a fixed
	// pool keyed by thread id reproduces the same steady state.
	Arenas int
	// Steal enables arena stealing on lock contention (ptmalloc's
	// behavior). Without it, threads always block on their home arena
	// (closer to MTmalloc's per-bucket behavior).
	Steal bool
}

// arena is one lock-protected heap.
type arena struct {
	id   int
	h    *heap.Heap
	lock env.Lock
}

type threadState struct{ home int }

// Allocator is the private-heaps-with-ownership allocator.
type Allocator struct {
	cfg     Config
	space   vm.Backend
	classes *sizeclass.Table
	arenas  []*arena
	acct    alloc.Accounting
}

// New creates an ownership allocator.
func New(cfg Config, lf env.LockFactory) *Allocator {
	if cfg.SuperblockSize == 0 {
		cfg.SuperblockSize = superblock.DefaultSize
	}
	if cfg.Arenas == 0 {
		cfg.Arenas = 16
	}
	if cfg.Arenas < 1 {
		panic(fmt.Sprintf("ownership: %d arenas", cfg.Arenas))
	}
	a := &Allocator{
		cfg:     cfg,
		space:   vm.New(),
		classes: sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, cfg.SuperblockSize/2),
	}
	a.arenas = make([]*arena, cfg.Arenas)
	for i := range a.arenas {
		lock := lf.NewLock(fmt.Sprintf("ownership.arena%d", i))
		a.arenas[i] = &arena{
			id:   i,
			h:    heap.New(i, cfg.SuperblockSize, 0.5, 0, a.classes.NumClasses(), lock),
			lock: lock,
		}
	}
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "ownership" }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.space }

// NewThread implements alloc.Allocator; threads are assigned home arenas
// round-robin by id.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	id := e.ThreadID()
	home := id % len(a.arenas)
	if home < 0 {
		home += len(a.arenas)
	}
	return &alloc.Thread{ID: id, Env: e, State: &threadState{home: home}}
}

// acquireArena locks and returns an arena for allocation: the home arena if
// free, else (with Steal) the first other arena whose lock is available,
// else the home arena after blocking.
func (a *Allocator) acquireArena(e env.Env, home int) *arena {
	ar := a.arenas[home]
	if ar.lock.TryLock(e) {
		return ar
	}
	if a.cfg.Steal {
		for i := 1; i < len(a.arenas); i++ {
			e.Charge(env.OpListScan, 1)
			cand := a.arenas[(home+i)%len(a.arenas)]
			if cand.lock.TryLock(e) {
				return cand
			}
		}
	}
	ar.lock.Lock(e)
	return ar
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	e := t.Env
	if size > a.classes.MaxSize() {
		return alloc.MallocLarge(a.space, &a.acct, e, size)
	}
	class, _ := a.classes.ClassFor(size)
	blockSize := a.classes.Size(class)
	ar := a.acquireArena(e, t.State.(*threadState).home)
	p, ok := ar.h.AllocBlock(e, class)
	if !ok {
		e.Charge(env.OpMallocSlow, 1)
		e.Charge(env.OpOSAlloc, 1)
		sb := superblock.New(a.space, a.cfg.SuperblockSize, class, blockSize)
		ar.h.Insert(sb)
		p, _ = ar.h.AllocBlock(e, class)
	}
	ar.lock.Unlock(e)
	e.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(blockSize)
	return p
}

// Free implements alloc.Allocator: the block returns to the arena owning
// its superblock, regardless of the freeing thread.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	e := t.Env
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("ownership: free of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		alloc.FreeLarge(a.space, &a.acct, e, "ownership", sp, p)
	case *superblock.Superblock:
		ar := a.arenas[owner.OwnerID()]
		ar.lock.Lock(e)
		ar.h.FreeBlock(e, owner, p)
		// Ptmalloc-style frees do boundary-tag coalescing under the
		// arena lock — work Hoard's O(1) free avoids; charge it so the
		// baseline's free cost matches its inspiration.
		e.Charge(env.OpListScan, 3)
		ar.lock.Unlock(e)
		e.Charge(env.OpFree, 1)
		a.acct.OnFree(owner.BlockSize())
	default:
		panic(fmt.Sprintf("ownership: free of foreign pointer %#x", uint64(p)))
	}
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(p alloc.Ptr) int {
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("ownership: UsableSize of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		return owner.Size
	case *superblock.Superblock:
		return owner.BlockSize()
	}
	panic(fmt.Sprintf("ownership: UsableSize of foreign pointer %#x", uint64(p)))
}

// Bytes implements alloc.Allocator.
func (a *Allocator) Bytes(p alloc.Ptr, n int) []byte {
	if n > a.UsableSize(p) {
		panic(fmt.Sprintf("ownership: Bytes(%#x, %d) exceeds usable size", uint64(p), n))
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
	var u int64
	for _, ar := range a.arenas {
		if err := ar.h.CheckIntegrity(); err != nil {
			return err
		}
		u += ar.h.U()
	}
	var heapBytes int64
	for _, ar := range a.arenas {
		heapBytes += ar.h.A()
	}
	large := a.space.Committed() - heapBytes
	if got := u + large; got != a.acct.Live() {
		return fmt.Errorf("ownership: live accounting %d != arenas %d + large %d", a.acct.Live(), u, large)
	}
	return nil
}
