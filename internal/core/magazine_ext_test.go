// The core_test files (*_ext_test.go) hold the black-box tests of Hoard's
// per-thread magazines: every test there drives them through core's
// exported API alone. The tests that inspect a thread's magazines or remote
// batch directly are in package core.
package core_test

import (
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/alloctest"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/metrics"
)

var lf = env.RealLockFactory{}

func newOverHoard(capacity int) *core.Hoard {
	return core.New(core.Config{Heaps: 4, Magazines: capacity}, lf)
}

// Conformance note: the suite's "LiveBytes == 0 after frees" checks observe
// the magazine-level stats, which treat cached blocks as free — exactly the
// application's view.
func TestConformanceOverHoard(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator { return newOverHoard(16) })
}

// TestLockFreeCountsMagazineHits: LockFreeMallocs and LockFreeFrees count
// the operations a magazine served alone; a refill or flush is a miss.
func TestLockFreeCountsMagazineHits(t *testing.T) {
	const capacity = 16
	a := newOverHoard(capacity)
	th := a.NewThread(&env.RealEnv{})
	var ps []alloc.Ptr
	for i := 0; i < capacity/2; i++ {
		ps = append(ps, a.Malloc(th, 64)) // the first refills
	}
	for _, p := range ps {
		a.Free(th, p)
	}
	for i := 0; i < capacity/2+1; i++ {
		a.Free(th, a.Malloc(th, 128)) // the first refills
	}
	st := a.Stats()
	if st.LockFreeMallocs != int64(capacity-1) || st.LockFreeFrees != int64(capacity+1) {
		t.Fatalf("lock-free mallocs %d, frees %d; want %d, %d",
			st.LockFreeMallocs, st.LockFreeFrees, capacity-1, capacity+1)
	}
}

func TestLargeBypassesCache(t *testing.T) {
	a := newOverHoard(16)
	th := a.NewThread(&env.RealEnv{})
	p := a.Malloc(th, 100000)
	a.Free(th, p)
	if got := a.CachedBytes(); got != 0 {
		t.Fatalf("large block cached: %d bytes", got)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 1 accepted")
		}
	}()
	core.New(core.Config{Heaps: 4, Magazines: 1}, lf)
}

func TestRefillUsesNativeBatch(t *testing.T) {
	const capacity = 16
	a := newOverHoard(capacity)
	th := a.NewThread(&env.RealEnv{})
	a.Malloc(th, 64)
	st := a.Stats()
	if st.BatchRefills != 1 || st.BatchedBlocks != capacity/2 {
		t.Fatalf("BatchRefills=%d BatchedBlocks=%d, want 1 refill of %d blocks",
			st.BatchRefills, st.BatchedBlocks, capacity/2)
	}
	// Overflow the magazine: the flush must also go through the batch path.
	var ps []alloc.Ptr
	for i := 0; i < 2*capacity; i++ {
		ps = append(ps, a.Malloc(th, 64))
	}
	for _, p := range ps {
		a.Free(th, p)
	}
	if st := a.Stats(); st.BatchFlushes == 0 {
		t.Fatal("magazine overflow never flushed a batch")
	}
}

// TestBatchCutsHeapLocks: a magazine transfer takes one heap lock, however
// many blocks it moves. Each round mallocs a burst of 2*capacity blocks,
// which defeats the magazine, then frees them all, so every round refills
// and flushes. One thread on real locks: every heap-lock acquisition but at
// most two (the superblock supply) is a refill's or a flush's. With
// capacity 32 a transfer moves 16 blocks; 6,400 operations take 277 locks
// for 143 refills and 133 flushes, where one lock per block took 4,550.
func TestBatchCutsHeapLocks(t *testing.T) {
	const capacity, rounds = 32, 50
	reg := metrics.NewRegistry()
	a := core.New(core.Config{Heaps: 2, Magazines: capacity}, reg.WrapFactory(lf))
	th := a.NewThread(&env.RealEnv{})
	ptrs := make([]alloc.Ptr, 2*capacity)
	for r := 0; r < rounds; r++ {
		for i := range ptrs {
			ptrs[i] = a.Malloc(th, 64)
		}
		for _, p := range ptrs {
			a.Free(th, p)
		}
	}
	locks, st := reg.TotalLockStats().Acquires, a.Stats()
	t.Logf("%d heap locks for %d refills and %d flushes", locks, st.BatchRefills, st.BatchFlushes)
	if st.Mallocs != rounds*2*capacity || st.Frees != st.Mallocs {
		t.Fatalf("%d mallocs and %d frees, want %d each", st.Mallocs, st.Frees, rounds*2*capacity)
	}
	if st.BatchRefills == 0 || st.BatchFlushes == 0 {
		t.Fatalf("no refill or no flush: %+v", st)
	}
	if transfers := st.BatchRefills + st.BatchFlushes; locks > transfers+2 {
		t.Fatalf("%d heap locks for %d refills and %d flushes, want at most %d",
			locks, st.BatchRefills, st.BatchFlushes, transfers+2)
	}
	a.FlushThread(th)
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineBytesTracksCachedBytes pins the gauge's contract: the core's
// held bytes less SampleStats' live bytes. A hit moves no byte the core
// holds and is published only at the thread's publishEvery-th hit (32) or
// its next transfer, so the gauge trails CachedBytes by exactly the live
// bytes of the open threads' unpublished hits, and equals it once each
// thread has published or closed. Capacity 16: a refill brings 8 blocks.
func TestMagazineBytesTracksCachedBytes(t *testing.T) {
	a := newOverHoard(16)
	t0 := a.NewThread(&env.RealEnv{ID: 0})
	t1 := a.NewThread(&env.RealEnv{ID: 1})
	gaugeIs := func(step string, unpublished int64) {
		t.Helper()
		if gauge, exact := a.MagazineBytes(), a.CachedBytes(); gauge != exact+unpublished {
			t.Fatalf("%s: gauge %d, want CachedBytes %d + unpublished %d", step, gauge, exact, unpublished)
		}
	}
	gaugeIs("no thread has cached", 0)

	// t1: a refill, then 3 malloc hits of 256 B, unpublished.
	class256, _ := a.Classes().ClassFor(256)
	size := int64(a.Classes().Size(class256))
	a.Malloc(t1, 256)
	gaugeIs("t1's refill", 0)
	for i := int64(1); i <= 3; i++ {
		a.Malloc(t1, 256)
		gaugeIs("t1's malloc hits", i*size)
	}
	t1Lag := 3 * size

	// t0: a refill, 7 malloc hits that empty its 64 B magazine, 12
	// free-malloc pairs: 31 hits, 448 B unpublished. The 32nd publishes.
	var held []alloc.Ptr
	held = append(held, a.Malloc(t0, 64))
	gaugeIs("t0's refill", t1Lag)
	for i := int64(1); i <= 7; i++ {
		held = append(held, a.Malloc(t0, 64))
		gaugeIs("t0's malloc hits", t1Lag+64*i)
	}
	for range 12 {
		a.Free(t0, held[len(held)-1])
		held[len(held)-1] = a.Malloc(t0, 64)
	}
	gaugeIs("t0's 31st hit", t1Lag+448)
	a.Free(t0, held[len(held)-1])
	held = held[:len(held)-1]
	gaugeIs("t0's 32nd hit, which publishes", t1Lag)

	a.FlushThread(t1)
	gaugeIs("t1 closed", 0)
	a.Free(t0, held[len(held)-1])
	held = held[:len(held)-1]
	gaugeIs("t0's free hit", -64)
	a.FlushThread(t0)
	if gauge, exact := a.MagazineBytes(), a.CachedBytes(); gauge != 0 || exact != 0 {
		t.Fatalf("gauge %d, CachedBytes %d after every thread closed", gauge, exact)
	}
}
