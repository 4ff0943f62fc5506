package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"hoardgo/internal/alloc"
	"hoardgo/internal/alloctest"
	"hoardgo/internal/env"
)

var lf = env.RealLockFactory{}

func newHoard(cfg Config) *Hoard { return New(cfg, lf) }

func thread(h *Hoard, id int) *alloc.Thread {
	return h.NewThread(&env.RealEnv{ID: id})
}

func TestMallocFreeRoundTrip(t *testing.T) {
	h := newHoard(Config{})
	th := thread(h, 0)
	sizes := []int{0, 1, 7, 8, 9, 16, 100, 1000, 4096, 4097, 8192, 100000}
	for _, sz := range sizes {
		p := h.Malloc(th, sz)
		if p.IsNil() {
			t.Fatalf("Malloc(%d) = nil", sz)
		}
		if us := h.UsableSize(p); us < sz {
			t.Fatalf("UsableSize(%d-byte alloc) = %d", sz, us)
		}
		if sz > 0 {
			buf := h.Bytes(p, sz)
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		h.Free(th, p)
	}
	st := h.Stats()
	if st.Mallocs != int64(len(sizes)) || st.Frees != int64(len(sizes)) {
		t.Fatalf("stats %+v", st)
	}
	if st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after all frees", st.LiveBytes)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctPointers(t *testing.T) {
	h := newHoard(Config{})
	th := thread(h, 0)
	seen := make(map[alloc.Ptr]bool)
	var ps []alloc.Ptr
	for i := 0; i < 10000; i++ {
		p := h.Malloc(th, 1+i%128)
		if seen[p] {
			t.Fatalf("duplicate pointer %#x", uint64(p))
		}
		seen[p] = true
		ps = append(ps, p)
	}
	for _, p := range ps {
		h.Free(th, p)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeObjects(t *testing.T) {
	h := newHoard(Config{})
	th := thread(h, 0)
	p := h.Malloc(th, 1<<20)
	if h.UsableSize(p) < 1<<20 {
		t.Fatal("large object too small")
	}
	buf := h.Bytes(p, 1<<20)
	buf[0], buf[len(buf)-1] = 1, 2
	st := h.Stats()
	if st.LargeMallocs != 1 {
		t.Fatalf("LargeMallocs = %d", st.LargeMallocs)
	}
	committed := h.Space().Committed()
	h.Free(th, p)
	if got := h.Space().Committed(); got >= committed {
		t.Fatalf("large free did not return memory to OS: %d -> %d", committed, got)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeThresholdBoundary(t *testing.T) {
	h := newHoard(Config{})
	th := thread(h, 0)
	maxSmall := h.Classes().MaxSize()
	ps := h.Malloc(th, maxSmall)
	pl := h.Malloc(th, maxSmall+1)
	if h.Stats().LargeMallocs != 1 {
		t.Fatalf("want exactly the %d-byte alloc on the large path", maxSmall+1)
	}
	h.Free(th, ps)
	h.Free(th, pl)
}

func TestFreeNilAndBadPointers(t *testing.T) {
	// Each bad operation gets a fresh allocator: the panics are fatal by
	// design and may fire while internal locks are held.
	cases := []struct {
		name string
		op   func(h *Hoard, th *alloc.Thread, p alloc.Ptr)
	}{
		{"double free", func(h *Hoard, th *alloc.Thread, p alloc.Ptr) { h.Free(th, p); h.Free(th, p) }},
		{"never allocated", func(h *Hoard, th *alloc.Thread, p alloc.Ptr) { h.Free(th, alloc.Ptr(12345)) }},
		{"interior pointer", func(h *Hoard, th *alloc.Thread, p alloc.Ptr) { h.Free(th, p+8) }},
		{"unknown usable size", func(h *Hoard, th *alloc.Thread, p alloc.Ptr) { h.UsableSize(alloc.Ptr(98765)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHoard(Config{})
			th := thread(h, 0)
			h.Free(th, 0) // free(nil) is always a no-op
			p := h.Malloc(th, 64)
			defer func() {
				if recover() == nil {
					t.Error("bad operation did not panic")
				}
			}()
			tc.op(h, th, p)
		})
	}
}

func TestEmptinessInvariantMovesSuperblocks(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	th := thread(h, 0)
	// Allocate enough 64-byte blocks for several superblocks, then free
	// them all: the thread heap must shed superblocks to the global heap
	// rather than hoarding them.
	var ps []alloc.Ptr
	for i := 0; i < 1000; i++ {
		ps = append(ps, h.Malloc(th, 64))
	}
	for _, p := range ps {
		h.Free(th, p)
	}
	if moves := h.Stats().SuperblockMoves; moves == 0 {
		t.Fatal("no superblocks moved to global heap after mass free")
	}
	_, _, g := h.HeapSnapshot(0)
	if g == 0 {
		t.Fatal("global heap empty after mass free")
	}
	u, a, _ := h.HeapSnapshot(1)
	if u != 0 {
		t.Fatalf("heap 1 u = %d after freeing everything", u)
	}
	// Invariant must hold on the quiesced per-processor heap: with u=0,
	// at most K superblocks (the slack) may remain.
	if a > int64(h.cfg.K*h.cfg.SuperblockSize) {
		t.Fatalf("heap 1 retains a=%d bytes with u=0; emptiness invariant (K=%d) violated", a, h.cfg.K)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalHeapReuseAcrossHeaps(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	t0 := thread(h, 0) // heap 1
	t1 := thread(h, 1) // heap 2
	var ps []alloc.Ptr
	for i := 0; i < 1000; i++ {
		ps = append(ps, h.Malloc(t0, 64))
	}
	for _, p := range ps {
		h.Free(t0, p)
	}
	reserved := h.Stats().OSReserves
	// Thread 1 should now be served from recycled superblocks.
	for i := 0; i < 500; i++ {
		h.Malloc(t1, 64)
	}
	st := h.Stats()
	if st.GlobalHeapHits == 0 {
		t.Fatal("thread 1 never reused a global-heap superblock")
	}
	if st.OSReserves > reserved+2 {
		t.Fatalf("thread 1 went to the OS %d times despite a stocked global heap", st.OSReserves-reserved)
	}
}

func TestGlobalHeapRecyclesAcrossClasses(t *testing.T) {
	h := newHoard(Config{Heaps: 1})
	th := thread(h, 0)
	var ps []alloc.Ptr
	for i := 0; i < 500; i++ {
		ps = append(ps, h.Malloc(th, 64))
	}
	for _, p := range ps {
		h.Free(th, p)
	}
	reserved := h.Stats().OSReserves
	// A different size class should be able to reuse the empty
	// superblocks now sitting in the global heap. (30 objects of 512
	// bytes need 2 superblocks; the global heap holds at least 3 of the
	// 4 shed by the mass free — the K=1 slack may keep one on heap 1.)
	for i := 0; i < 30; i++ {
		h.Malloc(th, 512)
	}
	if got := h.Stats().OSReserves; got != reserved {
		t.Fatalf("class switch went to OS %d times; want reuse of empty superblocks", got-reserved)
	}
}

func TestCrossThreadFree(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	producer := thread(h, 0)
	consumer := thread(h, 3)
	for round := 0; round < 50; round++ {
		var ps []alloc.Ptr
		for i := 0; i < 200; i++ {
			ps = append(ps, h.Malloc(producer, 48))
		}
		for _, p := range ps {
			h.Free(consumer, p)
		}
	}
	if h.Stats().RemoteFrees == 0 {
		t.Fatal("cross-thread frees not counted as remote")
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestBlowupBound is the paper's Theorem 1 checked empirically: under a
// producer-consumer pattern, Hoard's committed memory stays O(U + P) rather
// than growing with the number of rounds.
func TestBlowupBound(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	producer := thread(h, 0)
	consumer := thread(h, 3)
	const (
		rounds   = 200
		batch    = 500
		objSize  = 64
		maxLiveB = batch * objSize
	)
	var peak int64
	for r := 0; r < rounds; r++ {
		ps := make([]alloc.Ptr, batch)
		for i := range ps {
			ps[i] = h.Malloc(producer, objSize)
		}
		for _, p := range ps {
			h.Free(consumer, p)
		}
		if c := h.Space().Committed(); c > peak {
			peak = c
		}
	}
	// Bound: (1/(1-f))*U plus a constant number of superblocks per heap.
	sbSize := int64(h.cfg.SuperblockSize)
	bound := int64(float64(maxLiveB)/(1-h.cfg.EmptyFraction)) + int64(h.cfg.Heaps+1)*4*sbSize
	if peak > bound {
		t.Fatalf("peak committed %d exceeds blowup bound %d (U=%d)", peak, bound, maxLiveB)
	}
}

func TestThreadHeapHashing(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	used := map[int]bool{}
	for id := 0; id < 4; id++ {
		th := thread(h, id)
		used[th.State.(*ThreadState).heapIdx] = true
	}
	if len(used) != 4 {
		t.Fatalf("4 sequential threads mapped to %d heaps, want 4", len(used))
	}
	for id := 0; id < 100; id++ {
		idx := h.NewThread(&env.RealEnv{ID: id * 1000003}).State.(*ThreadState).heapIdx
		if idx < 1 || idx > 4 {
			t.Fatalf("heap index %d out of range", idx)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SuperblockSize: 1000}, // not power of two
		{SuperblockSize: 2048}, // below page size
		{EmptyFraction: 1.5},   // out of range
		{EmptyFraction: -0.25}, // out of range
		{K: -2},                // negative (-1 is KNone, valid)
		{Heaps: -3},            // negative
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted: %+v", i, cfg)
				}
			}()
			New(cfg, lf)
		}()
	}
}

// TestStaticFKOnEveryHeap pins that f and K are construction-time settings
// that reach every heap, the global heap 0 included, and that the free path
// enforces them: with K = 0 there is no slack, so a per-processor heap whose
// blocks are all freed must shed every superblock (the default K = 1 would
// let it keep one).
func TestStaticFKOnEveryHeap(t *testing.T) {
	h := newHoard(Config{Heaps: 3, EmptyFraction: 0.5, K: KNone})
	for _, hp := range h.heaps {
		if f, k := hp.EmptyFraction(), hp.SlackK(); f != 0.5 || k != 0 {
			t.Errorf("heap %d runs the invariant with f=%v K=%d, want f=0.5 K=0", hp.ID, f, k)
		}
	}
	th := thread(h, 0)
	var ps []alloc.Ptr
	for i := 0; i < 1000; i++ {
		ps = append(ps, h.Malloc(th, 64))
	}
	for _, p := range ps {
		h.Free(th, p)
	}
	if u, a, _ := h.HeapSnapshot(1); u != 0 || a != 0 {
		t.Fatalf("heap 1 holds u=%d a=%d after freeing everything under K=0, want 0/0", u, a)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomMix runs randomized malloc/free mixes against a
// shadow model with data verification and a final integrity check.
func TestPropertyRandomMix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHoard(Config{Heaps: 3})
		ths := []*alloc.Thread{thread(h, 0), thread(h, 1), thread(h, 2)}
		type obj struct {
			p   alloc.Ptr
			sz  int
			tag byte
		}
		var live []obj
		for op := 0; op < 3000; op++ {
			th := ths[rng.Intn(len(ths))]
			switch {
			case len(live) == 0 || rng.Intn(5) < 2:
				sz := 1 + rng.Intn(6000)
				if rng.Intn(20) == 0 {
					sz = 4097 + rng.Intn(20000) // large path
				}
				p := h.Malloc(th, sz)
				tag := byte(op)
				buf := h.Bytes(p, sz)
				for i := range buf {
					buf[i] = tag
				}
				live = append(live, obj{p, sz, tag})
			default:
				i := rng.Intn(len(live))
				o := live[i]
				buf := h.Bytes(o.p, o.sz)
				for j := range buf {
					if buf[j] != o.tag {
						return false
					}
				}
				h.Free(th, o.p)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		return h.CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStress hammers the allocator from real goroutines, with
// cross-thread frees through a channel, then checks integrity. Run with
// -race to validate the locking protocol.
func TestConcurrentStress(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	const workers = 8
	const opsPer = 3000
	ch := make(chan alloc.Ptr, 1024)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := thread(h, w)
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []alloc.Ptr
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					p := h.Malloc(th, 1+rng.Intn(2000))
					h.Bytes(p, 8)[0] = byte(w)
					mine = append(mine, p)
				case 2:
					if len(mine) > 0 {
						i := rng.Intn(len(mine))
						select {
						case ch <- mine[i]: // hand off to any thread
						default:
							h.Free(th, mine[i])
						}
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
				case 3:
					select {
					case p := <-ch:
						h.Free(th, p) // remote free
					default:
					}
				}
			}
			for _, p := range mine {
				h.Free(th, p)
			}
		}(w)
	}
	wg.Wait()
	close(ch)
	th := thread(h, 99)
	for p := range ch {
		h.Free(th, p)
	}
	if h.Stats().LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after full teardown", h.Stats().LiveBytes)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMallocFree64(b *testing.B) {
	h := newHoard(Config{})
	th := thread(h, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Free(th, h.Malloc(th, 64))
	}
}

func BenchmarkMallocFreeSizes(b *testing.B) {
	h := newHoard(Config{})
	th := thread(h, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Free(th, h.Malloc(th, 8+(i&1023)))
	}
}

func TestConformance(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator {
		return New(Config{Heaps: 4}, lf)
	})
}
