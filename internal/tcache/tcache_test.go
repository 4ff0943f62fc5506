package tcache

import (
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/alloctest"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

var lf = env.RealLockFactory{}

func newOverHoard(capacity int) *Allocator {
	return New(core.New(core.Config{Heaps: 4}, lf), Config{Capacity: capacity})
}

// Conformance note: the suite's "LiveBytes == 0 after frees" checks observe
// the tcache-level stats, which treat cached blocks as free — exactly the
// application's view.
func TestConformanceOverHoard(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator { return newOverHoard(16) })
}

func TestCacheHitAvoidsInner(t *testing.T) {
	a := newOverHoard(32)
	th := a.NewThread(&env.RealEnv{})
	p := a.Malloc(th, 64)
	innerMallocs := a.Inner().Stats().Mallocs
	a.Free(th, p) // into magazine
	q := a.Malloc(th, 64)
	if q != p {
		t.Fatalf("cache did not return the freed block: %#x vs %#x", uint64(q), uint64(p))
	}
	if got := a.Inner().Stats().Mallocs; got != innerMallocs {
		t.Fatalf("cache hit reached the inner allocator (%d -> %d mallocs)", innerMallocs, got)
	}
	a.Free(th, q)
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

func TestRefillBatches(t *testing.T) {
	const capacity = 16
	a := newOverHoard(capacity)
	th := a.NewThread(&env.RealEnv{})
	a.Malloc(th, 64)
	// One refill fetched Capacity/2 blocks from the inner allocator.
	if got := a.Inner().Stats().Mallocs; got != capacity/2 {
		t.Fatalf("inner mallocs = %d, want one batch of %d", got, capacity/2)
	}
	// The next Capacity/2-1 mallocs are free hits.
	for i := 0; i < capacity/2-1; i++ {
		a.Malloc(th, 64)
	}
	if got := a.Inner().Stats().Mallocs; got != capacity/2 {
		t.Fatalf("inner mallocs grew to %d during cached phase", got)
	}
}

func TestFlushAtCapacity(t *testing.T) {
	const capacity = 8
	a := newOverHoard(capacity)
	th := a.NewThread(&env.RealEnv{})
	var ps []alloc.Ptr
	for i := 0; i < 3*capacity; i++ {
		ps = append(ps, a.Malloc(th, 64))
	}
	for _, p := range ps {
		a.Free(th, p)
	}
	ts := th.State.(*threadState)
	class, _ := a.classFor(64)
	if got := len(ts.mags[class].ptrs); got > capacity {
		t.Fatalf("magazine holds %d > capacity %d", got, capacity)
	}
	if innerFrees := a.Inner().Stats().Frees; innerFrees == 0 {
		t.Fatal("no flush reached the inner allocator")
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestCachedBytesAndFlushThread(t *testing.T) {
	a := newOverHoard(16)
	th := a.NewThread(&env.RealEnv{})
	for i := 0; i < 8; i++ {
		a.Free(th, a.Malloc(th, 64))
	}
	if got := a.CachedBytes(); got == 0 {
		t.Fatal("nothing cached after frees")
	}
	a.FlushThread(th)
	if got := a.CachedBytes(); got != 0 {
		t.Fatalf("CachedBytes = %d after FlushThread", got)
	}
	if got := a.Inner().Stats().LiveBytes; got != 0 {
		t.Fatalf("inner LiveBytes = %d after full flush", got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
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

// TestUncachedClassesBypass: over 16 KiB superblocks Hoard's classes run to
// 8 KiB; the magazines cache Hoard's classes up to maxCachedSize, and the
// larger ones bypass them.
func TestUncachedClassesBypass(t *testing.T) {
	a := New(core.New(core.Config{Heaps: 4, SuperblockSize: 16 << 10}, lf), Config{})
	if n := len(a.caps); n == a.classes.NumClasses() || a.classes.Size(n-1) > maxCachedSize {
		t.Fatalf("%d of %d classes cached, the largest %d B", n, a.classes.NumClasses(), a.classes.Size(n-1))
	}
	th := a.NewThread(&env.RealEnv{})
	a.Free(th, a.Malloc(th, 8000))
	if got := a.CachedBytes(); got != 0 {
		t.Fatalf("an 8000 B block was cached: %d bytes", got)
	}
	a.Free(th, a.Malloc(th, 2000))
	if got := a.CachedBytes(); got == 0 {
		t.Fatal("a 2000 B block bypassed the magazines")
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerAwareFreeSkipsMagazine: over Hoard, B's free of a block A's heap
// owns goes to B's remote batch, never to B's magazine, so B never receives
// A's block; a full remote batch flushes to the owner, where A reuses it.
func TestOwnerAwareFreeSkipsMagazine(t *testing.T) {
	const capacity = 16
	a := newOverHoard(capacity)
	ta := a.NewThread(&env.RealEnv{ID: 0}) // heap 1
	tb := a.NewThread(&env.RealEnv{ID: 1}) // heap 2
	var ps []alloc.Ptr
	for i := 0; i < capacity; i++ {
		ps = append(ps, a.Malloc(ta, 64))
	}
	a.Free(tb, ps[0])
	tbs := tb.State.(*threadState)
	if len(tbs.remote) != 1 || tbs.remote[0] != ps[0] {
		t.Fatalf("remote batch holds %v, want A's block", tbs.remote)
	}
	for i := 0; i < 4*capacity; i++ {
		if q := a.Malloc(tb, 64); q == ps[0] {
			t.Fatal("B received A's block from its magazine")
		}
	}
	for _, p := range ps[1:] {
		a.Free(tb, p)
	}
	if len(tbs.remote) != 0 {
		t.Fatalf("remote batch holds %d blocks after reaching capacity, want a flush", len(tbs.remote))
	}
	if st := a.Stats(); st.RemoteFrees != capacity {
		t.Fatalf("RemoteFrees = %d, want %d", st.RemoteFrees, capacity)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrityCatchesDoubleCache(t *testing.T) {
	a := newOverHoard(16)
	th := a.NewThread(&env.RealEnv{})
	p := a.Malloc(th, 64)
	ts := th.State.(*threadState)
	class, _ := a.classFor(64)
	m := &ts.mags[class]
	sb, _ := superblock.FromPtr(a.inner.Space(), p)
	m.ptrs, m.sbs = append(m.ptrs, p, p), append(m.sbs, sb, sb) // corrupt deliberately
	if err := a.CheckIntegrity(); err == nil {
		t.Fatal("integrity missed a double-cached block")
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 1 accepted")
		}
	}()
	New(core.New(core.Config{Heaps: 4}, lf), Config{Capacity: 1})
}

func BenchmarkCachedMallocFree(b *testing.B) {
	a := newOverHoard(64)
	th := a.NewThread(&env.RealEnv{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(th, a.Malloc(th, 64))
	}
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
	clf := &env.CountingLockFactory{Inner: lf}
	a := New(core.New(core.Config{Heaps: 2}, clf), Config{Capacity: capacity})
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
	locks, st := clf.Acquires(), a.Stats()
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

func TestFlushThreadDeregisters(t *testing.T) {
	a := newOverHoard(16)
	t0 := a.NewThread(&env.RealEnv{ID: 0})
	t1 := a.NewThread(&env.RealEnv{ID: 1})
	if got := a.Threads(); got != 2 {
		t.Fatalf("Threads = %d, want 2", got)
	}
	for i := 0; i < 8; i++ {
		a.Free(t0, a.Malloc(t0, 64))
	}
	a.FlushThread(t0)
	if got := a.Threads(); got != 1 {
		t.Fatalf("Threads = %d after FlushThread, want 1", got)
	}
	// A stale handle stays usable but bypasses the magazines, so nothing
	// can be stranded in a cache the allocator no longer tracks.
	p := a.Malloc(t0, 64)
	a.Free(t0, p)
	if got := a.CachedBytes(); got != 0 {
		t.Fatalf("retired thread cached %d bytes", got)
	}
	if live := a.Stats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d", live)
	}
	a.FlushThread(t1)
	if got := a.Threads(); got != 0 {
		t.Fatalf("Threads = %d after flushing all, want 0", got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentChurnAndFlush churns goroutines through malloc/free/
// FlushThread concurrently — under -race this is the thread-lifecycle
// regression test for the deregistration path.
func TestConcurrentChurnAndFlush(t *testing.T) {
	a := newOverHoard(16)
	const workers = 8
	const rounds = 30
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				th := a.NewThread(&env.RealEnv{ID: id*rounds + r})
				var ps []alloc.Ptr
				for i := 0; i < 40; i++ {
					ps = append(ps, a.Malloc(th, 16+(i%5)*32))
				}
				for _, p := range ps {
					a.Free(th, p)
				}
				a.FlushThread(th)
			}
		}(w)
	}
	wg.Wait()
	if got := a.Threads(); got != 0 {
		t.Fatalf("Threads = %d after all workers flushed, want 0", got)
	}
	if live := a.Stats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d after churn", live)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRefillSteadyStateAllocFree pins down the sized-once contract: a
// refill writes straight into the magazine NewThread sized, so an
// underflow-refill-drain cycle performs no Go allocation at all.
func TestRefillSteadyStateAllocFree(t *testing.T) {
	const capacity = 32
	a := newOverHoard(capacity)
	th := a.NewThread(&env.RealEnv{})
	ts := th.State.(*threadState)
	buf := make([]alloc.Ptr, capacity/2)
	cycle := func() {
		// Drain the magazine: the first Malloc underflows and refills
		// capacity/2 blocks, the rest are cache hits, leaving it empty.
		for i := range buf {
			buf[i] = a.Malloc(th, 64)
		}
		// Return the blocks to the inner allocator directly so the next
		// cycle's refill pulls them back — steady state, no growth.
		for _, p := range buf {
			a.inner.Free(ts.inner, p)
		}
	}
	cycle() // warm up: the first refill reserves a superblock
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Fatalf("steady-state refill cycle allocates %.1f times per run, want 0", got)
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

// BenchmarkRefillCycle measures the underflow path; it reports allocations,
// which the sized-once magazines keep at zero.
func BenchmarkRefillCycle(b *testing.B) {
	const capacity = 64
	a := newOverHoard(capacity)
	th := a.NewThread(&env.RealEnv{})
	ts := th.State.(*threadState)
	buf := make([]alloc.Ptr, capacity/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range buf {
			buf[j] = a.Malloc(th, 64)
		}
		for _, p := range buf {
			a.inner.Free(ts.inner, p)
		}
	}
}
