package core

import (
	"math/rand"
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
)

// TestLockFreeWarmPathCounters pins the steady-state contract in the
// simplest setting: after a warm-up round, single-threaded churn on one size
// class is served by the lock-free paths, not the heap lock.
func TestLockFreeWarmPathCounters(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	th := thread(h, 0)
	// Warm up: the first malloc takes the locked refill path and publishes
	// the warm superblock.
	p := h.Malloc(th, 64)
	h.Free(th, p)
	before := h.Stats()
	for i := 0; i < 100; i++ {
		q := h.Malloc(th, 64)
		h.Free(th, q)
	}
	st := h.Stats()
	if got := st.LockFreeMallocs - before.LockFreeMallocs; got != 100 {
		t.Errorf("warm churn took %d lock-free mallocs, want 100", got)
	}
	if got := st.LockFreeFrees - before.LockFreeFrees; got != 100 {
		t.Errorf("warm churn took %d lock-free frees, want 100", got)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLockFreeDisabledTakesNoFastPath pins the ablation switch: with
// DisableLockFree set, every operation goes through the locked protocol and
// the lock-free counters stay at zero.
func TestLockFreeDisabledTakesNoFastPath(t *testing.T) {
	h := newHoard(Config{Heaps: 2, DisableLockFree: true})
	th := thread(h, 0)
	var ps []alloc.Ptr
	for i := 0; i < 200; i++ {
		ps = append(ps, h.Malloc(th, 64))
	}
	out := make([]alloc.Ptr, 16)
	n := h.MallocBatch(th, 64, len(out), out)
	h.FreeBatch(th, out[:n])
	for _, p := range ps {
		h.Free(th, p)
	}
	st := h.Stats()
	if st.LockFreeMallocs != 0 || st.LockFreeFrees != 0 || st.FastPathRetries != 0 {
		t.Fatalf("DisableLockFree arm used fast paths: mallocs=%d frees=%d retries=%d",
			st.LockFreeMallocs, st.LockFreeFrees, st.FastPathRetries)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestUnifiedFastFreeCrossHeap pins the unified free list's owner-agnostic
// side: a cross-thread free is the same CAS push as an owner-local one, so
// it completes immediately — counted as a remote fast free, with nothing
// left to reconcile.
func TestUnifiedFastFreeCrossHeap(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	producer := thread(h, 0) // heap 1
	consumer := thread(h, 1) // heap 2
	var ps []alloc.Ptr
	for i := 0; i < 50; i++ {
		ps = append(ps, h.Malloc(producer, 64))
	}
	for _, p := range ps {
		h.Free(consumer, p)
	}
	st := h.Stats()
	if st.RemoteFrees != 50 || st.RemoteFastFrees != 50 {
		t.Fatalf("remote counters %d/%d, want 50/50", st.RemoteFrees, st.RemoteFastFrees)
	}
	if st.LockFreeFrees < 50 {
		t.Fatalf("LockFreeFrees = %d, want >= 50 (cross-heap frees must take the direct push)", st.LockFreeFrees)
	}
	if st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after direct cross-heap frees", st.LiveBytes)
	}
	// Direct pushes land on the free list: the heaps' live usage is zero
	// right now, with no reconciliation step.
	var u int64
	for i := 0; i < h.NumHeaps(); i++ {
		hu, _, _ := h.HeapSnapshot(i)
		u += hu
	}
	if u != 0 {
		t.Fatalf("heap u sums to %d before any Reconcile, want 0", u)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestUnifiedFastFreeDoubleFree: the direct push marks the free bitmap at
// CAS time, so a cross-thread double free is detected at the second Free.
func TestUnifiedFastFreeDoubleFree(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	producer := thread(h, 0)
	consumer := thread(h, 1)
	p := h.Malloc(producer, 64)
	h.Free(consumer, p)
	defer func() {
		if recover() == nil {
			t.Fatal("immediate double free not detected")
		}
	}()
	h.Free(consumer, p)
}

// TestGlobalHeapFastFree pins the zero-lock steady state on the global heap:
// once superblocks carrying live blocks migrate there, the eventual frees of
// those blocks must take the direct push, never the global lock: the
// locked free site on the global heap must stay at zero acquisitions.
func TestGlobalHeapFastFree(t *testing.T) {
	clf := &env.CountingLockFactory{Inner: env.RealLockFactory{}}
	h := New(Config{Heaps: 2}, clf)
	th := thread(h, 0)
	var ps []alloc.Ptr
	for i := 0; i < 512; i++ {
		ps = append(ps, h.Malloc(th, 64))
	}
	// Free the first 300: the emptiness invariant trips and evicts
	// partially-empty superblocks — still carrying some of the remaining
	// 212 blocks — to the global heap.
	for _, p := range ps[:300] {
		h.Free(th, p)
	}
	st := h.Stats()
	if st.SuperblockMoves == 0 || st.MovedLiveBlocks == 0 {
		t.Skipf("eviction moved no live blocks to the global heap (moves=%d live=%d)",
			st.SuperblockMoves, st.MovedLiveBlocks)
	}
	for _, p := range ps[300:] {
		h.Free(th, p)
	}
	st = h.Stats()
	if st.RemoteFrees == 0 {
		t.Fatal("no free ever hit a global-heap superblock")
	}
	for _, s := range clf.SiteStats() {
		if s.Lock == "hoard.heap0" && s.Label == "free-locked" && s.Acquires != 0 {
			t.Fatalf("frees took the global lock %d times; global-heap frees must be lock-free", s.Acquires)
		}
	}
	if st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after freeing everything", st.LiveBytes)
	}
	h.Reconcile(&env.RealEnv{})
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLockFreeStress interleaves every mechanism that can touch a warm
// superblock concurrently: lock-free owner mallocs and frees (single and
// batch), remote frees from foreign threads, invariant-driven eviction to
// the global heap, and the scavenger decommitting global-heap superblocks.
// Under -race this is the memory-model check for the seal fences between the
// fast paths and the slow-path state machine; at quiescence the books must
// balance exactly.
func TestLockFreeStress(t *testing.T) {
	const (
		owners  = 4
		rounds  = 300
		burst   = 64
		remotes = 2
	)
	h := newHoard(Config{Heaps: owners})
	// Cross-thread traffic: owners push a slice of their blocks here, the
	// remote freers pull and free them from foreign heaps.
	ch := make(chan []alloc.Ptr, owners*rounds)

	var ownerWG sync.WaitGroup
	for id := 0; id < owners; id++ {
		ownerWG.Add(1)
		go func(id int) {
			defer ownerWG.Done()
			th := thread(h, id)
			rng := rand.New(rand.NewSource(int64(id)))
			buf := make([]alloc.Ptr, burst)
			for r := 0; r < rounds; r++ {
				n := burst
				if rng.Intn(2) == 0 {
					// Batch refill: exercises TryPopRun.
					n = h.MallocBatch(th, 64, burst, buf)
				} else {
					for i := 0; i < n; i++ {
						buf[i] = h.Malloc(th, 64)
					}
				}
				// A third crosses threads, a third goes back as a batch
				// (FastFreeRun), the rest free per-block (FastFree).
				third := n / 3
				cross := make([]alloc.Ptr, third)
				copy(cross, buf[:third])
				ch <- cross
				h.FreeBatch(th, buf[third:2*third])
				for _, p := range buf[2*third : n] {
					h.Free(th, p)
				}
			}
		}(id)
	}

	var rwg sync.WaitGroup
	done := make(chan struct{})
	for id := 0; id < remotes; id++ {
		rwg.Add(1)
		go func(id int) {
			defer rwg.Done()
			// Offset thread ids so these map to different heaps than the
			// blocks' owners most of the time — remote frees.
			th := thread(h, owners+1+id)
			for ps := range ch {
				if len(ps) > 1 {
					h.FreeBatch(th, ps[:len(ps)/2])
					ps = ps[len(ps)/2:]
				}
				for _, p := range ps {
					h.Free(th, p)
				}
			}
		}(id)
	}

	// Scavenger + auditor: decommit global-heap empties and audit
	// invariants while the fast paths run.
	var scavWG sync.WaitGroup
	scavWG.Add(1)
	go func() {
		defer scavWG.Done()
		e := &env.RealEnv{ID: -1}
		for {
			select {
			case <-done:
				return
			default:
			}
			h.TryScavengeGlobal(e, 1<<20, 0)
			if err := h.Audit(e); err != nil {
				t.Errorf("audit under load: %v", err)
				return
			}
		}
	}()

	// Owners finish first; then the remote freers drain the channel; the
	// scavenger/auditor runs until both are done.
	ownerWG.Wait()
	close(ch)
	rwg.Wait()
	close(done)
	scavWG.Wait()

	e := &env.RealEnv{ID: -1}
	h.Reconcile(e)
	st := h.Stats()
	if st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after balanced churn", st.LiveBytes)
	}
	if st.LockFreeMallocs == 0 || st.LockFreeFrees == 0 {
		t.Fatalf("stress run never took the fast paths: mallocs=%d frees=%d",
			st.LockFreeMallocs, st.LockFreeFrees)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
