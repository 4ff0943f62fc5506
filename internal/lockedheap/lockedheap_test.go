package lockedheap

import (
	"strings"
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/alloctest"
	"hoardgo/internal/env"
	"hoardgo/internal/metrics"
)

var lf = env.RealLockFactory{}

func TestConformance(t *testing.T) {
	for name, mk := range map[string]func() alloc.Allocator{
		"serial":     func() alloc.Allocator { return NewSerial(lf) },
		"concurrent": func() alloc.Allocator { return NewConcurrent(lf) },
		"ownership":  func() alloc.Allocator { return NewOwnership(4, lf) },
	} {
		t.Run(name, func(t *testing.T) { alloctest.Run(t, mk) })
	}
}

func TestNeverReturnsSmallMemory(t *testing.T) {
	// A serial malloc retains its heap: committed memory stays at the
	// high-water mark after frees.
	a := NewSerial(lf)
	th := a.NewThread(&env.RealEnv{})
	var ps []alloc.Ptr
	for i := 0; i < 2000; i++ {
		ps = append(ps, a.Malloc(th, 64))
	}
	committed := a.Space().Committed()
	for _, p := range ps {
		a.Free(th, p)
	}
	if got := a.Space().Committed(); got != committed {
		t.Fatalf("committed changed %d -> %d; serial heap should retain memory", committed, got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestReusesFreedBlocks(t *testing.T) {
	a := NewSerial(lf)
	th := a.NewThread(&env.RealEnv{})
	p := a.Malloc(th, 64)
	a.Free(th, p)
	q := a.Malloc(th, 64)
	if q != p {
		t.Fatalf("freed block not reused: %#x then %#x", uint64(p), uint64(q))
	}
}

func TestAdjacentAllocationsShareSuperblock(t *testing.T) {
	// The property that makes serial allocators actively induce false
	// sharing: consecutive mallocs (possibly from different threads) get
	// adjacent blocks in one superblock.
	a := NewSerial(lf)
	t0 := a.NewThread(&env.RealEnv{ID: 0})
	t1 := a.NewThread(&env.RealEnv{ID: 1})
	p0 := a.Malloc(t0, 8)
	p1 := a.Malloc(t1, 8)
	d := int64(p1) - int64(p0)
	if d < 0 {
		d = -d
	}
	if d >= 64 {
		t.Fatalf("consecutive 8-byte allocations %d bytes apart; expected same cache line", d)
	}
}

// TestDistinctClassesDistinctLocks pins the concurrent design: allocations
// in different size classes touch different locks, so they can proceed in
// parallel. We verify the structural property (distinct heaps per class).
func TestDistinctClassesDistinctLocks(t *testing.T) {
	a := NewConcurrent(lf)
	c8, _ := a.classes.ClassFor(8)
	c1024, _ := a.classes.ClassFor(1024)
	if c8 == c1024 {
		t.Fatal("test sizes share a class")
	}
	if a.heaps[c8] == a.heaps[c1024] {
		t.Fatal("classes share a heap")
	}
	if a.heaps[c8].Lock == a.heaps[c1024].Lock {
		t.Fatal("classes share a lock")
	}
}

// TestNoBlowup: a single shared heap reuses every freed block regardless of
// which thread freed it, so producer-consumer memory is flat — the one
// strength of the concurrent design.
func TestNoBlowup(t *testing.T) {
	a := NewConcurrent(lf)
	producer := a.NewThread(&env.RealEnv{ID: 0})
	consumer := a.NewThread(&env.RealEnv{ID: 1})
	var after10 int64
	for r := 0; r < 60; r++ {
		ps := make([]alloc.Ptr, 200)
		for i := range ps {
			ps[i] = a.Malloc(producer, 64)
		}
		for _, p := range ps {
			a.Free(consumer, p)
		}
		if r == 9 {
			after10 = a.Space().Committed()
		}
	}
	if got := a.Space().Committed(); got != after10 {
		t.Fatalf("committed grew %d -> %d; single heap must not blow up", after10, got)
	}
}

// TestActiveFalseSharingStructural: consecutive same-class allocations from
// different threads are adjacent (line-sharing) — the weakness the
// concurrent design shares with the serial allocator.
func TestActiveFalseSharingStructural(t *testing.T) {
	a := NewConcurrent(lf)
	t0 := a.NewThread(&env.RealEnv{ID: 0})
	t1 := a.NewThread(&env.RealEnv{ID: 1})
	p0 := a.Malloc(t0, 8)
	p1 := a.Malloc(t1, 8)
	d := int64(p1) - int64(p0)
	if d < 0 {
		d = -d
	}
	if d >= 64 {
		t.Fatalf("blocks %d bytes apart; expected same cache line", d)
	}
}

func TestConcurrentMixedClasses(t *testing.T) {
	a := NewConcurrent(lf)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread(&env.RealEnv{ID: w})
			var ps []alloc.Ptr
			for i := 0; i < 3000; i++ {
				ps = append(ps, a.Malloc(th, 8<<uint(w%5)))
			}
			for _, p := range ps {
				a.Free(th, p)
			}
		}(w)
	}
	wg.Wait()
	if got := a.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d", got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestProducerConsumerBounded shows the improvement of ownership over pure
// private heaps: ownership returns frees to the producer's arena, so
// producer-consumer memory stays bounded.
func TestProducerConsumerBounded(t *testing.T) {
	a := NewOwnership(4, lf)
	producer := a.NewThread(&env.RealEnv{ID: 0})
	consumer := a.NewThread(&env.RealEnv{ID: 1})
	const batch = 200
	var after10 int64
	for r := 0; r < 100; r++ {
		ps := make([]alloc.Ptr, batch)
		for i := range ps {
			ps[i] = a.Malloc(producer, 64)
		}
		for _, p := range ps {
			a.Free(consumer, p)
		}
		if r == 9 {
			after10 = a.Space().Committed()
		}
	}
	if got := a.Space().Committed(); got > 2*after10 {
		t.Fatalf("producer-consumer memory grew %d -> %d; ownership should bound it", after10, got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestPFoldBlowup demonstrates the O(P) blowup the paper ascribes to
// private heaps with ownership: when an allocation phase shifts from thread
// to thread, each thread's arena grows to the program's maximum live size,
// so the allocator consumes ~P times the ideal.
func TestPFoldBlowup(t *testing.T) {
	const arenas = 8
	a := NewOwnership(arenas, lf)
	const liveBytes = 64 * 1024
	const objSize = 64
	const objs = liveBytes / objSize
	for tid := 0; tid < arenas; tid++ {
		th := a.NewThread(&env.RealEnv{ID: tid})
		ps := make([]alloc.Ptr, objs)
		for i := range ps {
			ps[i] = a.Malloc(th, objSize)
		}
		for _, p := range ps {
			a.Free(th, p) // returns to this thread's own arena
		}
	}
	// Ideal allocator: ~liveBytes. Ownership: ~arenas * liveBytes.
	committed := a.Space().Committed()
	if committed < int64(arenas)*liveBytes/2 {
		t.Fatalf("committed %d; expected ~%d (P-fold blowup)", committed, arenas*liveBytes)
	}
	if got := a.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d", got)
	}
}

// TestArenaStealing verifies that a thread whose home arena is locked
// allocates from another arena instead of blocking.
func TestArenaStealing(t *testing.T) {
	a := NewOwnership(2, lf)
	t0 := a.NewThread(&env.RealEnv{ID: 0})
	// Hold arena 0's lock hostage.
	a.heaps[0].Lock.Lock(t0.Env)
	done := make(chan alloc.Ptr)
	go func() {
		t0b := a.NewThread(&env.RealEnv{ID: 0}) // same home arena 0
		done <- a.Malloc(t0b, 64)
	}()
	p := <-done // would deadlock without stealing
	a.heaps[0].Lock.Unlock(t0.Env)
	sp := a.space.Lookup(uint64(p))
	if sp == nil {
		t.Fatal("no span")
	}
	th := a.NewThread(&env.RealEnv{ID: 5})
	a.Free(th, p)
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestHomeArenaAssignment(t *testing.T) {
	a := NewOwnership(4, lf)
	for id := 0; id < 8; id++ {
		th := a.NewThread(&env.RealEnv{ID: id})
		if got, want := th.State.(*threadState).home, id%4; got != want {
			t.Fatalf("thread %d home arena %d, want %d", id, got, want)
		}
	}
	neg := a.NewThread(&env.RealEnv{ID: -3})
	if h := neg.State.(*threadState).home; h < 0 || h >= 4 {
		t.Fatalf("negative id mapped to arena %d", h)
	}
}

// TestMisuseFailsBeforeAnyLock: a free marks its block free before it takes
// the owning heap's lock, so a double free and an interior-pointer free
// panic without taking any lock, on all three heap-choice rules.
func TestMisuseFailsBeforeAnyLock(t *testing.T) {
	for name, mk := range map[string]func(env.LockFactory) *Allocator{
		"serial":     NewSerial,
		"concurrent": NewConcurrent,
		"ownership":  func(lf env.LockFactory) *Allocator { return NewOwnership(4, lf) },
	} {
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			a := mk(reg.WrapFactory(lf))
			th := a.NewThread(&env.RealEnv{})
			p, q := a.Malloc(th, 64), a.Malloc(th, 64)
			a.Free(th, p)
			for _, bad := range []alloc.Ptr{p, q + 8} {
				before := reg.TotalLockStats().Acquires
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("free of %#x did not panic", uint64(bad))
						}
					}()
					a.Free(th, bad)
				}()
				if got := reg.TotalLockStats().Acquires - before; got != 0 {
					t.Errorf("free of %#x took %d locks before panicking, want 0", uint64(bad), got)
				}
			}
			a.Free(th, q)
			if err := a.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBadFreePanics: a small free pushes its block through the owner id's
// heap as a batch of one, and panics when that heap does not own the
// superblock. The heaps never shed superblocks, so only a broken heap table
// reaches the check; swapping two arenas builds one.
func TestBadFreePanics(t *testing.T) {
	a := NewOwnership(2, lf)
	th := a.NewThread(&env.RealEnv{})
	p := a.Malloc(th, 64)
	a.heaps[0], a.heaps[1] = a.heaps[1], a.heaps[0]
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "heap 0 owns its superblock") {
			t.Fatalf("free into a heap that does not own the block: recovered %q", msg)
		}
	}()
	a.Free(th, p)
}
