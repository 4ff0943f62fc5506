package tcache

import (
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/alloctest"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/serial"
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

func TestConformanceOverSerial(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator {
		return New(serial.New(0, lf), Config{Capacity: 16})
	})
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
	if got := len(ts.mags[class]); got > capacity {
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

// TestPassiveFalseSharingReturns documents the tradeoff over an allocator
// without owners: a block freed by thread B is re-issued to thread B from
// its magazine although thread A allocated it, so line-mates split across
// threads again.
func TestPassiveFalseSharingReturns(t *testing.T) {
	a := New(serial.New(0, lf), Config{Capacity: 16})
	ta := a.NewThread(&env.RealEnv{ID: 0})
	tb := a.NewThread(&env.RealEnv{ID: 1})
	p := a.Malloc(ta, 64)
	a.Free(tb, p) // lands in B's magazine
	if q := a.Malloc(tb, 64); q != p {
		t.Fatalf("expected B to receive A's block from its magazine")
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
	ts.mags[class] = append(ts.mags[class], p, p) // corrupt deliberately
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
	New(serial.New(0, lf), Config{Capacity: 1})
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
		t.Fatal("magazine overflow never took the native FreeBatch path")
	}
}

// TestFallbackShim runs the cache over an inner allocator whose native batch
// path is hidden by alloc.NoBatch: everything must still work through the
// generic per-block shims, and the batch counters must honestly stay zero.
func TestFallbackShim(t *testing.T) {
	const capacity = 16
	a := New(alloc.NoBatch{Allocator: core.New(core.Config{Heaps: 4}, lf)}, Config{Capacity: capacity})
	th := a.NewThread(&env.RealEnv{})
	var ps []alloc.Ptr
	for i := 0; i < 3*capacity; i++ {
		ps = append(ps, a.Malloc(th, 64))
	}
	for _, p := range ps {
		a.Free(th, p)
	}
	a.FlushThread(th)
	st := a.Stats()
	if st.BatchRefills != 0 || st.BatchFlushes != 0 || st.BatchedBlocks != 0 {
		t.Fatalf("fallback path reported batch counters: %+v", st)
	}
	if st.Mallocs != int64(3*capacity) || st.Frees != int64(3*capacity) {
		t.Fatalf("ops lost through the shim: %+v", st)
	}
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
				// Free a third per-block, the rest through the generic
				// batch shim (which lands in the magazines and flushes).
				var rest []alloc.Ptr
				for i, p := range ps {
					if i%3 == 0 {
						a.Free(th, p)
					} else {
						rest = append(rest, p)
					}
				}
				alloc.FreeBatch(a, th, rest)
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

// TestRefillSteadyStateAllocFree pins down the scratch-buffer contract:
// once the magazine slice and staging buffer have grown, an
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
	cycle() // warm up: grow the magazine slice and scratch buffer once
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

// BenchmarkRefillCycle measures the underflow path; run with -benchmem (the
// benchmark reports allocations) to see the scratch buffer keeping the
// steady-state refill allocation-free.
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
