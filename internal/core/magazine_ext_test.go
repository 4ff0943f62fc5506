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

// TestMagazineBytesTracksCachedBytes pins the gauge's boundary-publication
// contract: after balanced churn each magazine sits at exactly its
// post-refill fill, so the published gauge matches CachedBytes; between
// boundaries the fast paths leave it stale by the unpublished pops.
func TestMagazineBytesTracksCachedBytes(t *testing.T) {
	a := newOverHoard(16)
	t0 := a.NewThread(&env.RealEnv{ID: 0})
	t1 := a.NewThread(&env.RealEnv{ID: 1})
	for i := 0; i < 10; i++ {
		a.Free(t0, a.Malloc(t0, 64))
		a.Free(t1, a.Malloc(t1, 256))
	}
	if a.MagazineBytes() == 0 {
		t.Fatal("gauge empty after cached frees")
	}
	if gauge, exact := a.MagazineBytes(), a.CachedBytes(); gauge != exact {
		t.Fatalf("boundary gauge %d != CachedBytes %d", gauge, exact)
	}
	// A cache-hit pop is not a transfer boundary: the gauge must hold the
	// last published value, now stale by exactly the popped block.
	p := a.Malloc(t0, 64)
	if gauge, exact := a.MagazineBytes(), a.CachedBytes(); gauge != exact+64 {
		t.Fatalf("mid-burst gauge %d, want published %d (exact %d + popped 64)",
			gauge, exact+64, exact)
	}
	a.Free(t0, p)
	a.FlushThread(t0)
	if gauge, exact := a.MagazineBytes(), a.CachedBytes(); gauge != exact {
		t.Fatalf("after FlushThread gauge %d != CachedBytes %d", gauge, exact)
	}
	a.FlushThread(t1)
	if got := a.MagazineBytes(); got != 0 {
		t.Fatalf("gauge %d after flushing every thread", got)
	}
}
