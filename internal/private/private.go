// Package private implements the paper's "pure private heaps" baseline, in
// the mold of Cilk 4.1's allocator and the original STL pthread_alloc.
//
// Each thread owns a completely private heap: malloc pops the calling
// thread's per-class free list (or carves from the thread's current span),
// and free pushes the block onto the *freeing* thread's list — whichever
// thread that is. No locks are taken on either path, so the allocator is
// embarrassingly scalable; but memory freed by a thread that did not
// allocate it is stranded on the freeing thread's lists, so producer-
// consumer programs exhibit unbounded blowup (paper §2.2), and blocks
// migrating between threads' lists passively induce false sharing. This is
// the allocator that motivates Hoard's ownership discipline.
package private

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// spanTag marks a carving span with its size class. carved is maintained by
// the span's owning thread alone and read only at quiescence.
type spanTag struct {
	class     int
	blockSize int
	carved    int
}

// threadState is one thread's private heap.
type threadState struct {
	free      []alloc.Ptr // head of intrusive free list, per class
	freeCount []int
	carve     []carveState
}

type carveState struct {
	span *vm.Span
	off  int
}

// Allocator is the pure-private-heaps allocator.
type Allocator struct {
	space   vm.Backend
	classes *sizeclass.Table
	acct    alloc.Accounting

	mu      sync.Mutex
	threads []*threadState
	spans   []*vm.Span
}

// New creates a pure-private-heaps allocator. It carves blocks from 8 KiB
// spans, matching the other allocators' superblocks.
func New(lf env.LockFactory) *Allocator {
	_ = lf // no locks on malloc/free: the defining property of pure private heaps
	return &Allocator{
		space:   vm.New(),
		classes: sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, superblock.DefaultSize/2),
	}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "private" }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.space }

// NewThread implements alloc.Allocator.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	n := a.classes.NumClasses()
	ts := &threadState{
		free:      make([]alloc.Ptr, n),
		freeCount: make([]int, n),
		carve:     make([]carveState, n),
	}
	a.mu.Lock()
	a.threads = append(a.threads, ts)
	a.mu.Unlock()
	return &alloc.Thread{ID: e.ThreadID(), Env: e, State: ts}
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	e := t.Env
	if size > a.classes.MaxSize() {
		return alloc.MallocLarge(a.space, &a.acct, e, size)
	}
	ts := t.State.(*threadState)
	class, _ := a.classes.ClassFor(size)
	blockSize := a.classes.Size(class)

	var p alloc.Ptr
	if head := ts.free[class]; !head.IsNil() {
		// Pop the thread's own free list; the link read pulls the
		// block's cache line into this thread's cache.
		link := a.space.Bytes(uint64(head), 8)
		e.Touch(uint64(head), 8, false)
		ts.free[class] = alloc.Ptr(binary.LittleEndian.Uint64(link))
		ts.freeCount[class]--
		p = head
	} else {
		cs := &ts.carve[class]
		if cs.span == nil || cs.off+blockSize > cs.span.Len {
			e.Charge(env.OpMallocSlow, 1)
			e.Charge(env.OpOSAlloc, 1)
			cs.span = a.space.Reserve(superblock.DefaultSize, superblock.DefaultSize, &spanTag{class: class, blockSize: blockSize})
			cs.off = 0
			a.mu.Lock()
			a.spans = append(a.spans, cs.span)
			a.mu.Unlock()
		}
		p = alloc.Ptr(cs.span.Base + uint64(cs.off))
		cs.off += blockSize
		cs.span.Owner.(*spanTag).carved++
	}
	e.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(blockSize)
	return p
}

// Free implements alloc.Allocator. The block lands on the *calling* thread's
// free list regardless of who allocated it — the defining (and fatal)
// property of pure private heaps.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	e := t.Env
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("private: free of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		alloc.FreeLarge(a.space, &a.acct, e, "private", sp, p)
	case *spanTag:
		if (uint64(p)-sp.Base)%uint64(owner.blockSize) != 0 {
			panic(fmt.Sprintf("private: free of misaligned pointer %#x", uint64(p)))
		}
		ts := t.State.(*threadState)
		link := a.space.Bytes(uint64(p), 8)
		binary.LittleEndian.PutUint64(link, uint64(ts.free[owner.class]))
		e.Touch(uint64(p), 8, true)
		ts.free[owner.class] = p
		ts.freeCount[owner.class]++
		e.Charge(env.OpFree, 1)
		a.acct.OnFree(owner.blockSize)
	default:
		panic(fmt.Sprintf("private: free of foreign pointer %#x", uint64(p)))
	}
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(p alloc.Ptr) int {
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("private: UsableSize of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		return owner.Size
	case *spanTag:
		return owner.blockSize
	}
	panic(fmt.Sprintf("private: UsableSize of foreign pointer %#x", uint64(p)))
}

// Bytes implements alloc.Allocator.
func (a *Allocator) Bytes(p alloc.Ptr, n int) []byte {
	if n > a.UsableSize(p) {
		panic(fmt.Sprintf("private: Bytes(%#x, %d) exceeds usable size", uint64(p), n))
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

// FreeListBytes reports the total bytes sitting on threads' private free
// lists — the stranded memory that drives this allocator's blowup. Requires
// quiescence.
func (a *Allocator) FreeListBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total int64
	for _, ts := range a.threads {
		for c, n := range ts.freeCount {
			total += int64(n) * int64(a.classes.Size(c))
		}
	}
	return total
}

// CheckIntegrity implements alloc.Allocator. It walks every thread's free
// lists validating membership, then cross-checks the live-byte gauge:
// live = carved - free-listed + large, where large objects are exactly the
// reserved bytes no carving span holds. Requires quiescence.
func (a *Allocator) CheckIntegrity() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var freeBytes int64
	seen := make(map[alloc.Ptr]bool)
	for ti, ts := range a.threads {
		for c := range ts.free {
			n := 0
			for p := ts.free[c]; !p.IsNil(); {
				if seen[p] {
					return fmt.Errorf("private: block %#x on two free lists", uint64(p))
				}
				seen[p] = true
				sp := a.space.Lookup(uint64(p))
				if sp == nil {
					return fmt.Errorf("private: thread %d class %d free list references dead span (%#x)", ti, c, uint64(p))
				}
				tag, ok := sp.Owner.(*spanTag)
				if !ok || tag.class != c {
					return fmt.Errorf("private: block %#x on wrong class list %d", uint64(p), c)
				}
				n++
				p = alloc.Ptr(binary.LittleEndian.Uint64(a.space.Bytes(uint64(p), 8)))
			}
			if n != ts.freeCount[c] {
				return fmt.Errorf("private: thread %d class %d free count %d, list has %d", ti, c, ts.freeCount[c], n)
			}
			freeBytes += int64(n) * int64(a.classes.Size(c))
		}
	}
	var carvedBytes, spanBytes int64
	for _, sp := range a.spans {
		tag := sp.Owner.(*spanTag)
		if tag.carved < 0 || tag.carved*tag.blockSize > sp.Len {
			return fmt.Errorf("private: span %#x carved %d blocks of %d bytes, exceeds span", sp.Base, tag.carved, tag.blockSize)
		}
		carvedBytes += int64(tag.carved) * int64(tag.blockSize)
		spanBytes += int64(sp.Len)
	}
	large := a.space.Reserved() - spanBytes
	live := carvedBytes - freeBytes + large
	if got := a.acct.Live(); got != live {
		return fmt.Errorf("private: live gauge %d, span accounting %d (carved %d, free %d, large %d)",
			got, live, carvedBytes, freeBytes, large)
	}
	return nil
}
