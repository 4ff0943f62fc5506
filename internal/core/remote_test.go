package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

// TestRemoteFastPathCounters pins what the cross-heap counters mean on
// both arms: a cross-thread free counts in RemoteFrees either way; it counts
// in RemoteFastFrees (and LockFreeFrees) only when it landed by CAS, and
// under DisableLockFree it takes the owner's lock instead. Either way the
// blocks are back on their superblocks at once, with nothing left to
// reconcile.
func TestRemoteFastPathCounters(t *testing.T) {
	for _, disable := range []bool{false, true} {
		h := newHoard(Config{Heaps: 4, DisableLockFree: disable})
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
		wantFast := int64(50)
		if disable {
			wantFast = 0
		}
		if st.RemoteFrees != 50 || st.RemoteFastFrees != wantFast || st.LockFreeFrees != wantFast {
			t.Fatalf("DisableLockFree=%v: remote %d, remote fast %d, lock-free frees %d; want 50, %d, %d",
				disable, st.RemoteFrees, st.RemoteFastFrees, st.LockFreeFrees, wantFast, wantFast)
		}
		if st.LiveBytes != 0 {
			t.Fatalf("DisableLockFree=%v: LiveBytes = %d after remote frees", disable, st.LiveBytes)
		}
		var u int64
		for i := 0; i < h.NumHeaps(); i++ {
			hu, _, _ := h.HeapSnapshot(i)
			u += hu
		}
		if u != 0 {
			t.Fatalf("DisableLockFree=%v: heap u sums to %d before any Reconcile, want 0", disable, u)
		}
		if err := h.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocalFreeTakesNoFastPath: same-heap frees must not be counted remote.
func TestLocalFreeTakesNoFastPath(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	th := thread(h, 0)
	p := h.Malloc(th, 64)
	h.Free(th, p)
	st := h.Stats()
	if st.RemoteFrees != 0 || st.RemoteFastFrees != 0 {
		t.Fatalf("local free counted remote: %d/%d", st.RemoteFrees, st.RemoteFastFrees)
	}
}

// TestRemoteDoubleFreeDetected: a cross-thread double free panics at the
// second Free on the locked fallback too (DisableLockFree), not at some
// later reconciliation. TestUnifiedFastFreeDoubleFree covers the CAS path.
func TestRemoteDoubleFreeDetected(t *testing.T) {
	h := newHoard(Config{Heaps: 2, DisableLockFree: true})
	producer := thread(h, 0)
	consumer := thread(h, 1)
	p := h.Malloc(producer, 64)
	h.Free(consumer, p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-thread double free not detected at the second Free")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "double free") {
			t.Fatalf("panic %q does not name the double free", msg)
		}
	}()
	h.Free(consumer, p)
}

// TestOwnershipMigrationStress is the ownership-change race under the
// lock-free protocol: producers mass-free locally so their heaps keep
// evicting superblocks to the global heap while consumers push remote frees
// at those same superblocks. At quiescence, accounting must be exact and
// every structure consistent.
func TestOwnershipMigrationStress(t *testing.T) {
	h := newHoard(Config{Heaps: 3, EmptyFraction: 0.5, K: KNone})
	const producers, consumers = 3, 3
	const rounds = 60
	const batch = 120
	chans := make([]chan alloc.Ptr, producers)
	for i := range chans {
		chans[i] = make(chan alloc.Ptr, batch)
	}
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := thread(h, w)
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for r := 0; r < rounds; r++ {
				var keep []alloc.Ptr
				for i := 0; i < batch; i++ {
					p := h.Malloc(th, 1+rng.Intn(200))
					if i%2 == 0 {
						chans[w] <- p
					} else {
						keep = append(keep, p)
					}
				}
				// Mass local frees drive the emptiness invariant:
				// superblocks migrate to the global heap while the
				// consumer's remote frees for them are in flight.
				for _, p := range keep {
					h.Free(th, p)
				}
			}
			close(chans[w])
		}(w)
	}
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Consumer threads map to different heaps than producers.
			th := thread(h, producers+w)
			for p := range chans[w%producers] {
				h.Free(th, p)
			}
		}(w)
	}
	wg.Wait()

	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("integrity at quiescence (pre-reconcile): %v", err)
	}
	if live := h.Stats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d at quiescence", live)
	}
	h.Reconcile(&env.RealEnv{})
	var u int64
	for i := 0; i < h.NumHeaps(); i++ {
		hu, _, _ := h.HeapSnapshot(i)
		u += hu
	}
	if u != 0 {
		t.Fatalf("heaps report %d bytes in use after Reconcile of a fully-freed run", u)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestMallocReusesCrossThreadFrees: blocks another thread freed back to our
// superblock serve our next malloc — on the CAS path and on the locked
// fallback alike — instead of fetching new memory.
func TestMallocReusesCrossThreadFrees(t *testing.T) {
	for _, disable := range []bool{false, true} {
		h := newHoard(Config{Heaps: 2, DisableLockFree: disable})
		producer := thread(h, 0)
		consumer := thread(h, 1)
		class, _ := h.Classes().ClassFor(64)
		perSB := h.cfg.SuperblockSize / h.Classes().Size(class)
		var ps []alloc.Ptr
		for i := 0; i < perSB; i++ {
			ps = append(ps, h.Malloc(producer, 64))
		}
		reserves := h.Stats().OSReserves
		for _, p := range ps[:4] {
			h.Free(consumer, p)
		}
		q := h.Malloc(producer, 64)
		if got := h.Stats().OSReserves; got != reserves {
			t.Fatalf("DisableLockFree=%v: malloc reserved from the OS (%d -> %d) instead of reusing freed blocks",
				disable, reserves, got)
		}
		h.Free(producer, q)
		for _, p := range ps[4:] {
			h.Free(producer, p)
		}
		if err := h.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealedCrossHeapFreeTakesOwnerLock pins the fallback for a refused CAS:
// a cross-heap free to a sealed superblock takes the owner heap's lock —
// the paper's locked free — and the block lands on its superblock exactly
// once.
func TestSealedCrossHeapFreeTakesOwnerLock(t *testing.T) {
	clf := &env.CountingLockFactory{Inner: env.RealLockFactory{}}
	h := New(Config{Heaps: 2}, clf)
	a := thread(h, 0) // heap 1
	b := thread(h, 1) // heap 2
	p := h.Malloc(a, 64)
	keep := h.Malloc(a, 64) // keeps the superblock from emptying
	sb, ok := superblock.FromPtr(h.Space(), p)
	if !ok || sb.OwnerID() != 1 {
		t.Fatalf("block not on a heap-1 superblock (ok=%v)", ok)
	}
	sb.Seal()
	before := h.Stats()
	h.Free(b, p)

	var ownerLocks, otherFreeLocks int64
	for _, s := range clf.SiteStats() {
		switch {
		case s.Lock == "hoard.heap1" && s.Label == "free-locked":
			ownerLocks += s.Acquires
		case s.Label == "free-locked":
			otherFreeLocks += s.Acquires
		}
	}
	if ownerLocks != 1 || otherFreeLocks != 0 {
		t.Fatalf("free took heap 1's lock %d times and other heaps' %d times, want 1 and 0",
			ownerLocks, otherFreeLocks)
	}
	st := h.Stats()
	if d := st.Frees - before.Frees; d != 1 {
		t.Fatalf("Frees moved by %d, want 1", d)
	}
	if d := st.RemoteFrees - before.RemoteFrees; d != 1 {
		t.Fatalf("RemoteFrees moved by %d, want 1", d)
	}
	if st.RemoteFastFrees != before.RemoteFastFrees || st.LockFreeFrees != before.LockFreeFrees {
		t.Fatal("a free refused by the seal was counted as a CAS free")
	}
	if sb.InUse() != 1 {
		t.Fatalf("superblock holds %d blocks in use, want 1 (the kept block)", sb.InUse())
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	h.Free(a, keep)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
