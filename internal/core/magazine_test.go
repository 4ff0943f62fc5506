package core

import (
	"fmt"
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

func newOverHoard(capacity int) *Hoard {
	return New(Config{Heaps: 4, Magazines: capacity}, lf)
}

// classFor returns the magazine slot for a request size, or ok=false if the
// size bypasses the magazines.
func (h *Hoard) classFor(size int) (int, bool) {
	c, ok := h.classes.ClassFor(size)
	return c, ok && c < len(h.caps)
}

// Threads reports the number of threads with magazines not yet flushed.
func (h *Hoard) Threads() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.threads)
}

func TestCacheHitAvoidsInner(t *testing.T) {
	a := newOverHoard(32)
	th := a.NewThread(&env.RealEnv{})
	p := a.Malloc(th, 64)
	innerMallocs := a.heldStats().Mallocs
	a.Free(th, p) // into magazine
	q := a.Malloc(th, 64)
	if q != p {
		t.Fatalf("cache did not return the freed block: %#x vs %#x", uint64(q), uint64(p))
	}
	if got := a.heldStats().Mallocs; got != innerMallocs {
		t.Fatalf("cache hit reached the inner allocator (%d -> %d mallocs)", innerMallocs, got)
	}
	a.Free(th, q)
}

func TestRefillBatches(t *testing.T) {
	const capacity = 16
	a := newOverHoard(capacity)
	th := a.NewThread(&env.RealEnv{})
	a.Malloc(th, 64)
	// One refill fetched Capacity/2 blocks from the inner allocator.
	if got := a.heldStats().Mallocs; got != capacity/2 {
		t.Fatalf("inner mallocs = %d, want one batch of %d", got, capacity/2)
	}
	// The next Capacity/2-1 mallocs are free hits.
	for i := 0; i < capacity/2-1; i++ {
		a.Malloc(th, 64)
	}
	if got := a.heldStats().Mallocs; got != capacity/2 {
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
	ts := th.State.(*ThreadState)
	class, _ := a.classFor(64)
	if got := len(ts.mags[class]); got > capacity {
		t.Fatalf("magazine holds %d > capacity %d", got, capacity)
	}
	if innerFrees := a.heldStats().Frees; innerFrees == 0 {
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
	if got := a.heldStats().LiveBytes; got != 0 {
		t.Fatalf("inner LiveBytes = %d after full flush", got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestUncachedClassesBypass: over 16 KiB superblocks Hoard's classes run to
// 8 KiB; the magazines cache Hoard's classes up to maxCachedSize, and the
// larger ones bypass them.
func TestUncachedClassesBypass(t *testing.T) {
	a := New(Config{Heaps: 4, SuperblockSize: 16 << 10, Magazines: DefaultCapacity}, lf)
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
	tbs := tb.State.(*ThreadState)
	if len(tbs.remote) != 1 || tbs.remote[0].P != ps[0] {
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
	ts := th.State.(*ThreadState)
	class, _ := a.classFor(64)
	m := &ts.mags[class]
	sb, _ := superblock.FromPtr(a.Space(), p)
	*m = append(*m, superblock.Block{P: p, SB: sb}, superblock.Block{P: p, SB: sb}) // corrupt deliberately
	if err := a.CheckIntegrity(); err == nil {
		t.Fatal("integrity missed a double-cached block")
	}
}

func BenchmarkCachedMallocFree(b *testing.B) {
	a := newOverHoard(64)
	th := a.NewThread(&env.RealEnv{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(th, a.Malloc(th, 64))
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
	ts := th.State.(*ThreadState)
	buf := make([]alloc.Ptr, capacity/2)
	cycle := func() {
		// Drain the magazine: the first Malloc underflows and refills
		// capacity/2 blocks, the rest are cache hits, leaving it empty.
		for i := range buf {
			buf[i] = a.Malloc(th, 64)
		}
		// Return the blocks to their heap directly so the next cycle's
		// refill pulls them back — steady state, no growth.
		for _, p := range buf {
			sb, _ := superblock.FromPtr(a.Space(), p)
			a.freeSmall(ts, sb, p)
		}
	}
	cycle() // warm up: the first refill reserves a superblock
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Fatalf("steady-state refill cycle allocates %.1f times per run, want 0", got)
	}
}

// BenchmarkRefillCycle measures the underflow path; it reports allocations,
// which the sized-once magazines keep at zero.
func BenchmarkRefillCycle(b *testing.B) {
	const capacity = 64
	a := newOverHoard(capacity)
	th := a.NewThread(&env.RealEnv{})
	ts := th.State.(*ThreadState)
	buf := make([]alloc.Ptr, capacity/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range buf {
			buf[j] = a.Malloc(th, 64)
		}
		for _, p := range buf {
			sb, _ := superblock.FromPtr(a.Space(), p)
			a.freeSmall(ts, sb, p)
		}
	}
}

// TestRefillWarm pins the refill's warm: on a real-time env a refill zeroes
// the first word of each block of a class one cache line holds and leaves
// every other byte as the program last wrote it, and a larger class keeps
// every byte. A simulated env's refill changes no byte. Each case stamps a
// magazine's worth of blocks through Bytes, frees and flushes them, and
// forces a refill that takes them back.
func TestRefillWarm(t *testing.T) {
	for _, tc := range []struct {
		sim  bool
		size int
		warm bool
	}{
		{false, 8, true}, {false, 48, true}, {false, 64, true}, {false, 80, false}, {false, 4096, false},
		{true, 8, false}, {true, 64, false}, {true, 80, false},
	} {
		name := fmt.Sprintf("real/%dB", tc.size)
		var e env.Env = &env.RealEnv{}
		if tc.sim {
			name, e = fmt.Sprintf("sim/%dB", tc.size), &chargeEnv{}
		}
		t.Run(name, func(t *testing.T) {
			a := newOverHoard(DefaultCapacity)
			th := a.NewThread(e)
			ts := th.State.(*ThreadState)
			class, _ := a.classFor(tc.size)
			stamped := make(map[alloc.Ptr]bool)
			for range a.caps[class] {
				p := a.Malloc(th, tc.size)
				for i, bs := 0, a.Bytes(p, tc.size); i < len(bs); i++ {
					bs[i] = 0xAA
				}
				stamped[p] = true
			}
			for p := range stamped {
				a.Free(th, p)
			}
			a.flushMagazine(ts, class, 0)

			refilled := []alloc.Ptr{a.Malloc(th, tc.size)}
			for _, b := range ts.mags[class] {
				refilled = append(refilled, b.P)
			}
			if len(refilled) != a.caps[class]/2 {
				t.Fatalf("refill took %d blocks, want %d", len(refilled), a.caps[class]/2)
			}
			for _, p := range refilled {
				if !stamped[p] {
					t.Fatalf("refill took block %#x, not one of the stamped blocks", uint64(p))
				}
				for i, c := range a.Bytes(p, tc.size) {
					want := byte(0xAA)
					if tc.warm && i < 8 {
						want = 0
					}
					if c != want {
						t.Fatalf("block %#x byte %d is %#x, want %#x", uint64(p), i, c, want)
					}
				}
			}
		})
	}
}
