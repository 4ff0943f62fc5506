// Package threshold implements the paper taxonomy's "private heaps with
// thresholds", after Vee & Hsu's allocator and the DYNIX kernel allocator
// (McKenney & Slingwine).
//
// Each thread keeps a per-class cache of free blocks bounded by watermarks:
// frees beyond the high watermark spill half the cache to a per-class
// global pool; mallocs on an empty cache refill a batch from the pool (or
// carve a fresh span). Blowup is therefore bounded — stranded memory per
// thread is capped by the watermark — but blocks move between threads at
// *object* granularity, so the allocator still induces false sharing, and
// every spill/refill traverses the blocks it moves, adding overhead that
// superblock-granularity transfers (Hoard) avoid.
package threshold

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

// Config parameterizes the threshold allocator.
type Config struct {
	// Watermark is the batch size Lo: refills fetch up to Lo blocks and
	// spills trigger at 2*Lo, returning Lo blocks (0 selects 32).
	Watermark int
}

type spanTag struct {
	class     int
	blockSize int
	carved    int
}

// classPool is the global per-class pool.
type classPool struct {
	lock  env.Lock
	free  alloc.Ptr
	count int
	carve *vm.Span
	off   int
}

type threadState struct {
	free  []alloc.Ptr
	count []int
}

// Allocator is the private-heaps-with-thresholds allocator.
type Allocator struct {
	cfg     Config
	space   vm.Backend
	classes *sizeclass.Table
	pools   []*classPool
	acct    alloc.Accounting
	spills  atomic.Int64
	refills atomic.Int64

	mu      sync.Mutex
	threads []*threadState
	spans   []*vm.Span
}

// New creates a threshold allocator.
func New(cfg Config, lf env.LockFactory) *Allocator {
	if cfg.Watermark == 0 {
		cfg.Watermark = 32
	}
	if cfg.Watermark < 1 {
		panic(fmt.Sprintf("threshold: watermark %d", cfg.Watermark))
	}
	a := &Allocator{
		cfg:     cfg,
		space:   vm.New(),
		classes: sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, superblock.DefaultSize/2),
	}
	a.pools = make([]*classPool, a.classes.NumClasses())
	for i := range a.pools {
		a.pools[i] = &classPool{lock: lf.NewLock(fmt.Sprintf("threshold.class%d", i))}
	}
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "threshold" }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.space }

// NewThread implements alloc.Allocator.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	n := a.classes.NumClasses()
	ts := &threadState{free: make([]alloc.Ptr, n), count: make([]int, n)}
	a.mu.Lock()
	a.threads = append(a.threads, ts)
	a.mu.Unlock()
	return &alloc.Thread{ID: e.ThreadID(), Env: e, State: ts}
}

// link reads the next pointer stored in a free block.
func (a *Allocator) link(e env.Env, p alloc.Ptr) alloc.Ptr {
	e.Touch(uint64(p), 8, false)
	return alloc.Ptr(binary.LittleEndian.Uint64(a.space.Bytes(uint64(p), 8)))
}

// setLink writes the next pointer into a free block.
func (a *Allocator) setLink(e env.Env, p, next alloc.Ptr) {
	binary.LittleEndian.PutUint64(a.space.Bytes(uint64(p), 8), uint64(next))
	e.Touch(uint64(p), 8, true)
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

	if ts.free[class].IsNil() {
		a.refill(e, ts, class, blockSize)
	}
	p := ts.free[class]
	ts.free[class] = a.link(e, p)
	ts.count[class]--
	e.Charge(env.OpMallocFast, 1)
	a.acct.OnMalloc(blockSize)
	return p
}

// refill moves up to Watermark blocks from the class's global pool (carving
// new spans as needed) onto the calling thread's cache.
func (a *Allocator) refill(e env.Env, ts *threadState, class, blockSize int) {
	pool := a.pools[class]
	e.Charge(env.OpMallocSlow, 1)
	a.refills.Add(1)
	pool.lock.Lock(e)
	got := 0
	for got < a.cfg.Watermark {
		var p alloc.Ptr
		if !pool.free.IsNil() {
			p = pool.free
			pool.free = a.link(e, p)
			pool.count--
		} else {
			if pool.carve == nil || pool.off+blockSize > pool.carve.Len {
				e.Charge(env.OpOSAlloc, 1)
				pool.carve = a.space.Reserve(superblock.DefaultSize, superblock.DefaultSize,
					&spanTag{class: class, blockSize: blockSize})
				pool.off = 0
				a.mu.Lock()
				a.spans = append(a.spans, pool.carve)
				a.mu.Unlock()
			}
			p = alloc.Ptr(pool.carve.Base + uint64(pool.off))
			pool.off += blockSize
			pool.carve.Owner.(*spanTag).carved++
		}
		a.setLink(e, p, ts.free[class])
		ts.free[class] = p
		ts.count[class]++
		got++
		e.Charge(env.OpListScan, 1)
	}
	pool.lock.Unlock(e)
}

// Free implements alloc.Allocator. Blocks land on the freeing thread's
// cache; crossing the high watermark spills a batch to the global pool.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	e := t.Env
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("threshold: free of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		alloc.FreeLarge(a.space, &a.acct, e, "threshold", sp, p)
	case *spanTag:
		if (uint64(p)-sp.Base)%uint64(owner.blockSize) != 0 {
			panic(fmt.Sprintf("threshold: free of misaligned pointer %#x", uint64(p)))
		}
		ts := t.State.(*threadState)
		class := owner.class
		a.setLink(e, p, ts.free[class])
		ts.free[class] = p
		ts.count[class]++
		e.Charge(env.OpFree, 1)
		a.acct.OnFree(owner.blockSize)
		if ts.count[class] > 2*a.cfg.Watermark {
			a.spill(e, ts, class)
		}
	default:
		panic(fmt.Sprintf("threshold: free of foreign pointer %#x", uint64(p)))
	}
}

// spill returns Watermark blocks from the thread cache to the global pool.
func (a *Allocator) spill(e env.Env, ts *threadState, class int) {
	pool := a.pools[class]
	a.spills.Add(1)
	pool.lock.Lock(e)
	for i := 0; i < a.cfg.Watermark && !ts.free[class].IsNil(); i++ {
		p := ts.free[class]
		ts.free[class] = a.link(e, p)
		ts.count[class]--
		a.setLink(e, p, pool.free)
		pool.free = p
		pool.count++
		e.Charge(env.OpListScan, 1)
	}
	pool.lock.Unlock(e)
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(p alloc.Ptr) int {
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		panic(fmt.Sprintf("threshold: UsableSize of unknown pointer %#x", uint64(p)))
	}
	switch owner := sp.Owner.(type) {
	case *alloc.LargeObj:
		return owner.Size
	case *spanTag:
		return owner.blockSize
	}
	panic(fmt.Sprintf("threshold: UsableSize of foreign pointer %#x", uint64(p)))
}

// Bytes implements alloc.Allocator.
func (a *Allocator) Bytes(p alloc.Ptr, n int) []byte {
	if n > a.UsableSize(p) {
		panic(fmt.Sprintf("threshold: Bytes(%#x, %d) exceeds usable size", uint64(p), n))
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

// SpillsRefills reports watermark crossings, the overhead knob this design
// trades against blowup.
func (a *Allocator) SpillsRefills() (spills, refills int64) {
	return a.spills.Load(), a.refills.Load()
}

// CheckIntegrity implements alloc.Allocator: validates every thread cache
// and pool list, then the live gauge. Requires quiescence.
func (a *Allocator) CheckIntegrity() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := &env.RealEnv{}
	seen := make(map[alloc.Ptr]bool)
	var freeBytes int64
	walk := func(head alloc.Ptr, wantCount, class int, where string) error {
		n := 0
		for p := head; !p.IsNil(); {
			if seen[p] {
				return fmt.Errorf("threshold: block %#x on two free lists", uint64(p))
			}
			seen[p] = true
			sp := a.space.Lookup(uint64(p))
			if sp == nil {
				return fmt.Errorf("threshold: %s list references dead span (%#x)", where, uint64(p))
			}
			tag, ok := sp.Owner.(*spanTag)
			if !ok || tag.class != class {
				return fmt.Errorf("threshold: block %#x on wrong list %s", uint64(p), where)
			}
			n++
			p = a.link(e, p)
		}
		if n != wantCount {
			return fmt.Errorf("threshold: %s count %d, list has %d", where, wantCount, n)
		}
		freeBytes += int64(n) * int64(a.classes.Size(class))
		return nil
	}
	for ti, ts := range a.threads {
		for c := range ts.free {
			if err := walk(ts.free[c], ts.count[c], c, fmt.Sprintf("thread %d class %d", ti, c)); err != nil {
				return err
			}
		}
	}
	for c, pool := range a.pools {
		if err := walk(pool.free, pool.count, c, fmt.Sprintf("pool class %d", c)); err != nil {
			return err
		}
	}
	var carvedBytes, spanBytes int64
	for _, sp := range a.spans {
		tag := sp.Owner.(*spanTag)
		if tag.carved < 0 || tag.carved*tag.blockSize > sp.Len {
			return fmt.Errorf("threshold: span %#x over-carved", sp.Base)
		}
		carvedBytes += int64(tag.carved) * int64(tag.blockSize)
		spanBytes += int64(sp.Len)
	}
	// Large objects are exactly the reserved bytes no carving span holds.
	live := carvedBytes - freeBytes + a.space.Reserved() - spanBytes
	if got := a.acct.Live(); got != live {
		return fmt.Errorf("threshold: live gauge %d, span accounting %d", got, live)
	}
	return nil
}
