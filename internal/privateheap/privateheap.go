// Package privateheap implements two rows of the paper's allocator
// taxonomy (§2) as one allocator: pure private heaps, and private heaps
// with thresholds. In both, each thread keeps an intrusive free list per
// size class, and a free pushes the block onto the freeing thread's list,
// whichever thread allocated it. The two differ only in how a thread
// refills an empty list and whether it ever gives blocks back:
//
//   - private (Cilk 4.1's allocator, the original STL pthread_alloc): the
//     thread carves from its own span and never gives a block back.
//     Neither malloc nor free takes a lock, so the allocator is
//     embarrassingly scalable, but memory freed by a thread that did not
//     allocate it is stranded on the freeing thread's lists: producer-
//     consumer programs exhibit unbounded blowup (paper §2.2), and blocks
//     migrating between threads' lists passively induce false sharing.
//     This is the allocator that motivates Hoard's ownership discipline.
//   - threshold (Vee & Hsu, and the DYNIX kernel allocator of McKenney &
//     Slingwine): the thread refills a batch from the class's global pool
//     under the pool's lock, carving fresh spans as the pool runs dry, and
//     a list that grows past twice the batch spills a batch back. Stranded
//     memory per thread is capped, so blowup is bounded, but blocks move
//     between threads at object granularity, so the allocator still
//     induces false sharing, and every spill and refill walks the blocks it
//     moves, an overhead Hoard's superblock-granularity transfers avoid.
//
// As in the allocators they model, neither rule checks a small free against
// the block's state: a double free, or a free of a block inside a span that
// was never carved, goes onto a list unnoticed. A pointer that names no
// whole block of a span panics.
package privateheap

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// watermark is the threshold rule's batch size: a refill moves watermark
// blocks, and a list holding more than 2*watermark spills watermark.
const watermark = 32

// spanTag marks a carving span with its size class. carved is maintained
// by the span's one carver and read only at quiescence.
type spanTag struct {
	class     int
	blockSize int
	carved    int
}

// list is an intrusive LIFO free list: the first 8 bytes of each block
// hold the next block's address.
type list struct {
	head  alloc.Ptr
	count int
}

// carveState is a span being cut into blocks front to back.
type carveState struct {
	span *vm.Span
	off  int
}

// exhausted reports whether no whole block of blockSize is left to carve.
func (cs *carveState) exhausted(blockSize int) bool {
	return cs.span == nil || cs.off+blockSize > cs.span.Len
}

// threadState is one thread's private heap. carve is used by the private
// rule only.
type threadState struct {
	lists []list
	carve []carveState
}

// classPool is the threshold rule's global pool of one size class.
type classPool struct {
	lock env.Lock
	list
	carve carveState
}

// Allocator is a set of per-thread private heaps with one refill rule.
type Allocator struct {
	name    string
	space   vm.Backend
	classes *sizeclass.Table
	acct    alloc.Accounting
	// pools, watermark and the spill and refill counts belong to the
	// threshold rule; a nil pools selects the private rule.
	pools           []*classPool
	watermark       int
	spills, refills atomic.Int64

	mu      sync.Mutex
	threads []*threadState
	spans   []*vm.Span
}

// newAllocator carves blocks from 8 KiB spans, matching the other
// allocators' superblocks.
func newAllocator(name string) *Allocator {
	return &Allocator{
		name:    name,
		space:   vm.New(),
		classes: sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, superblock.DefaultSize/2),
	}
}

// NewPrivate creates the pure-private-heaps allocator.
func NewPrivate() *Allocator {
	return newAllocator("private")
}

// NewThreshold creates the private-heaps-with-thresholds allocator, its
// pool of class i locked by a lock named threshold.class<i>.
func NewThreshold(lf env.LockFactory) *Allocator {
	a := newAllocator("threshold")
	a.watermark = watermark
	a.pools = make([]*classPool, a.classes.NumClasses())
	for i := range a.pools {
		a.pools[i] = &classPool{lock: lf.NewLock(fmt.Sprintf("threshold.class%d", i))}
	}
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.name }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.space }

// NewThread implements alloc.Allocator.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	n := a.classes.NumClasses()
	ts := &threadState{lists: make([]list, n), carve: make([]carveState, n)}
	a.mu.Lock()
	a.threads = append(a.threads, ts)
	a.mu.Unlock()
	return &alloc.Thread{ID: e.ThreadID(), Env: e, State: ts}
}

// next reads the link stored in free block p.
func (a *Allocator) next(p alloc.Ptr) alloc.Ptr {
	return alloc.Ptr(binary.LittleEndian.Uint64(a.space.Bytes(uint64(p), 8)))
}

// pop unlinks l's first block; the link read pulls the block's cache line
// into the caller's cache.
func (a *Allocator) pop(e env.Env, l *list) alloc.Ptr {
	p := l.head
	e.Touch(uint64(p), 8, false)
	l.head = a.next(p)
	l.count--
	return p
}

// push links p in front of l's first block.
func (a *Allocator) push(e env.Env, l *list, p alloc.Ptr) {
	binary.LittleEndian.PutUint64(a.space.Bytes(uint64(p), 8), uint64(l.head))
	e.Touch(uint64(p), 8, true)
	l.head = p
	l.count++
}

// carve cuts the next block of class from cs, first reserving a fresh span
// when cs has no whole block left.
func (a *Allocator) carve(e env.Env, cs *carveState, class, blockSize int) alloc.Ptr {
	if cs.exhausted(blockSize) {
		e.Charge(env.OpOSAlloc, 1)
		cs.span = a.space.Reserve(superblock.DefaultSize, superblock.DefaultSize,
			&spanTag{class: class, blockSize: blockSize})
		cs.off = 0
		a.mu.Lock()
		a.spans = append(a.spans, cs.span)
		a.mu.Unlock()
	}
	p := alloc.Ptr(cs.span.Base + uint64(cs.off))
	cs.off += blockSize
	cs.span.Owner.(*spanTag).carved++
	return p
}

// carveOwn is the private rule: carve from the thread's own span, with no
// lock. Only a span reservation takes the slow path.
func (a *Allocator) carveOwn(e env.Env, cs *carveState, class, blockSize int) alloc.Ptr {
	if cs.exhausted(blockSize) {
		e.Charge(env.OpMallocSlow, 1)
	}
	return a.carve(e, cs, class, blockSize)
}

// refillFromPool is the threshold rule: under the pool's lock, move
// watermark blocks from the class's pool, carving new spans as needed,
// onto the thread's list l of class; then pop one.
func (a *Allocator) refillFromPool(e env.Env, l *list, class, blockSize int) alloc.Ptr {
	pool := a.pools[class]
	e.Charge(env.OpMallocSlow, 1)
	a.refills.Add(1)
	pool.lock.Lock(e)
	for i := 0; i < a.watermark; i++ {
		var p alloc.Ptr
		if !pool.head.IsNil() {
			p = a.pop(e, &pool.list)
		} else {
			p = a.carve(e, &pool.carve, class, blockSize)
		}
		a.push(e, l, p)
		e.Charge(env.OpListScan, 1)
	}
	pool.lock.Unlock(e)
	return a.pop(e, l)
}

// spill is the threshold rule's other half: return watermark blocks from a
// thread's list of class to the class's pool.
func (a *Allocator) spill(e env.Env, l *list, class int) {
	pool := a.pools[class]
	a.spills.Add(1)
	pool.lock.Lock(e)
	for i := 0; i < a.watermark && !l.head.IsNil(); i++ {
		a.push(e, &pool.list, a.pop(e, l))
		e.Charge(env.OpListScan, 1)
	}
	pool.lock.Unlock(e)
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
	switch l := &ts.lists[class]; {
	case !l.head.IsNil():
		p = a.pop(e, l)
	case a.pools == nil:
		p = a.carveOwn(e, &ts.carve[class], class, blockSize)
	default:
		p = a.refillFromPool(e, l, class, blockSize)
	}
	e.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(blockSize)
	return p
}

// Free implements alloc.Allocator. The block lands on the *calling*
// thread's list regardless of who allocated it: the defining property of
// private heaps, and under the private rule their fatal one. Under the
// threshold rule, crossing the high watermark spills a batch to the pool.
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
	case *spanTag:
		// p must start a whole block: neither inside one nor in the
		// span's tail past its last whole block.
		if off := int(uint64(p) - sp.Base); off%owner.blockSize != 0 || off+owner.blockSize > sp.Len {
			panic(fmt.Sprintf("%s: free of misaligned pointer %#x", a.name, uint64(p)))
		}
		l := &t.State.(*threadState).lists[owner.class]
		a.push(e, l, p)
		e.Charge(env.OpFree, 1)
		a.acct.OnFree(owner.blockSize)
		if a.pools != nil && l.count > 2*a.watermark {
			a.spill(e, l, owner.class)
		}
	default:
		panic(fmt.Sprintf("%s: free of foreign pointer %#x", a.name, uint64(p)))
	}
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
	case *spanTag:
		return owner.blockSize
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

// CheckIntegrity implements alloc.Allocator. It walks every thread's and
// pool's lists validating membership, then cross-checks the live-byte
// gauge: live = carved - listed + large, where large objects are exactly
// the reserved bytes no carving span holds. Requires quiescence.
func (a *Allocator) CheckIntegrity() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := make(map[alloc.Ptr]bool)
	var freeBytes int64
	walk := func(l *list, class int, where string) error {
		n := 0
		for p := l.head; !p.IsNil(); p = a.next(p) {
			if seen[p] {
				return fmt.Errorf("%s: block %#x on two free lists", a.name, uint64(p))
			}
			seen[p] = true
			sp := a.space.Lookup(uint64(p))
			if sp == nil {
				return fmt.Errorf("%s: %s list references dead span (%#x)", a.name, where, uint64(p))
			}
			if tag, ok := sp.Owner.(*spanTag); !ok || tag.class != class {
				return fmt.Errorf("%s: block %#x on wrong list %s", a.name, uint64(p), where)
			}
			n++
		}
		if n != l.count {
			return fmt.Errorf("%s: %s count %d, list has %d", a.name, where, l.count, n)
		}
		freeBytes += int64(n) * int64(a.classes.Size(class))
		return nil
	}
	for ti, ts := range a.threads {
		for c := range ts.lists {
			if err := walk(&ts.lists[c], c, fmt.Sprintf("thread %d class %d", ti, c)); err != nil {
				return err
			}
		}
	}
	for c, pool := range a.pools {
		if err := walk(&pool.list, c, fmt.Sprintf("pool class %d", c)); err != nil {
			return err
		}
	}
	var carvedBytes, spanBytes int64
	for _, sp := range a.spans {
		tag := sp.Owner.(*spanTag)
		if tag.carved < 0 || tag.carved*tag.blockSize > sp.Len {
			return fmt.Errorf("%s: span %#x carved %d blocks of %d bytes, exceeds span", a.name, sp.Base, tag.carved, tag.blockSize)
		}
		carvedBytes += int64(tag.carved) * int64(tag.blockSize)
		spanBytes += int64(sp.Len)
	}
	large := a.space.Reserved() - spanBytes
	if got, live := a.acct.Live(), carvedBytes-freeBytes+large; got != live {
		return fmt.Errorf("%s: live gauge %d, span accounting %d (carved %d, free %d, large %d)",
			a.name, got, live, carvedBytes, freeBytes, large)
	}
	return nil
}
