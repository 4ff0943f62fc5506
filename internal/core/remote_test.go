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

// TestCrossHeapFreeTakesOwnerLock pins the paper's free-to-owner rule: a
// cross-thread free takes the owning heap's lock — once per block, and no
// other heap's — counts in RemoteFrees, and puts the block back on its
// superblock at once, with the owner's books exact.
func TestCrossHeapFreeTakesOwnerLock(t *testing.T) {
	clf := &env.CountingLockFactory{Inner: env.RealLockFactory{}}
	h := New(Config{Heaps: 4}, clf)
	producer := thread(h, 0) // heap 1
	consumer := thread(h, 1) // heap 2
	var ps []alloc.Ptr
	for i := 0; i < 50; i++ {
		ps = append(ps, h.Malloc(producer, 64))
	}
	keep := h.Malloc(producer, 64) // keeps the superblock on heap 1
	sb, ok := superblock.FromPtr(h.Space(), keep)
	if !ok || sb.OwnerID() != 1 {
		t.Fatalf("block not on a heap-1 superblock (ok=%v)", ok)
	}
	for _, p := range ps {
		h.Free(consumer, p)
	}
	var ownerLocks, otherFreeLocks int64
	for _, s := range clf.SiteStats() {
		switch {
		case s.Lock == "hoard.heap1" && s.Label == "free":
			ownerLocks += s.Acquires
		case s.Label == "free":
			otherFreeLocks += s.Acquires
		}
	}
	if ownerLocks != 50 || otherFreeLocks != 0 {
		t.Fatalf("frees took heap 1's lock %d times and other heaps' %d times, want 50 and 0",
			ownerLocks, otherFreeLocks)
	}
	st := h.Stats()
	if st.RemoteFrees != 50 || st.LiveBytes != int64(h.UsableSize(keep)) {
		t.Fatalf("remote %d, live %d B; want 50, %d B", st.RemoteFrees, st.LiveBytes, h.UsableSize(keep))
	}
	if u, _, _ := h.HeapSnapshot(1); u != int64(h.UsableSize(keep)) {
		t.Fatalf("heap 1 reports u=%d, want the kept block's %d", u, h.UsableSize(keep))
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	h.Free(producer, keep)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteFastPathCounters pins what the cross-heap counters mean on the
// locked core: a cross-thread free counts in RemoteFrees, and the core has no
// lock-free path, so LockFreeFrees and LockFreeMallocs stay 0. The blocks are
// back on their superblocks at once, with the heaps' books exact.
func TestRemoteFastPathCounters(t *testing.T) {
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
	if st.RemoteFrees != 50 || st.LockFreeFrees != 0 || st.LockFreeMallocs != 0 {
		t.Fatalf("remote %d, lock-free frees %d, lock-free mallocs %d; want 50, 0, 0",
			st.RemoteFrees, st.LockFreeFrees, st.LockFreeMallocs)
	}
	if st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after remote frees", st.LiveBytes)
	}
	var u int64
	for i := 0; i < h.NumHeaps(); i++ {
		hu, _, _ := h.HeapSnapshot(i)
		u += hu
	}
	if u != 0 {
		t.Fatalf("heap u sums to %d after every block was freed, want 0", u)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalFreeTakesNoFastPath: same-heap frees must not be counted remote.
func TestLocalFreeTakesNoFastPath(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	th := thread(h, 0)
	p := h.Malloc(th, 64)
	h.Free(th, p)
	st := h.Stats()
	if st.RemoteFrees != 0 {
		t.Fatalf("local free counted remote: %d", st.RemoteFrees)
	}
}

// TestRemoteDoubleFreeDetected: a cross-thread double free panics at the
// second Free.
func TestRemoteDoubleFreeDetected(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
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

// TestOwnershipMigrationStress is the ownership-change race: producers mass-free locally so their heaps keep
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

	if live := h.Stats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d at quiescence", live)
	}
	var u int64
	for i := 0; i < h.NumHeaps(); i++ {
		hu, _, _ := h.HeapSnapshot(i)
		u += hu
	}
	if u != 0 {
		t.Fatalf("heaps report %d bytes in use after a fully-freed run", u)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestMallocReusesCrossThreadFrees: blocks another thread freed back to our
// superblock serve our next malloc instead of fetching new memory.
func TestMallocReusesCrossThreadFrees(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
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
		t.Fatalf("malloc reserved from the OS (%d -> %d) instead of reusing freed blocks", reserves, got)
	}
	h.Free(producer, q)
	for _, p := range ps[4:] {
		h.Free(producer, p)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
