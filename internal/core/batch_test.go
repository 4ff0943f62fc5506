package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

// chargeEnv records every Charge by kind, for auditing the charging
// discipline documented in internal/env.
type chargeEnv struct {
	id     int
	counts [env.NumCostKinds]int64
}

func (c *chargeEnv) Charge(k env.CostKind, n int64) { c.counts[k] += n }
func (c *chargeEnv) Touch(uint64, int, bool)        {}
func (c *chargeEnv) ThreadID() int                  { return c.id }
func (c *chargeEnv) reset()                         { c.counts = [env.NumCostKinds]int64{} }

// refill is a thread cache's refill of n blocks of size: the blocks, their
// free bits still set, each with its superblock.
func refill(t *testing.T, h *Hoard, th *alloc.Thread, size, n int) []superblock.Block {
	t.Helper()
	out := make([]superblock.Block, n)
	class, _ := h.classes.ClassFor(size)
	if got := h.mallocCached(th.State.(*ThreadState), class, n, out); got != n {
		t.Fatalf("mallocCached = %d, want %d", got, n)
	}
	return out
}

// checkCached is CheckIntegrity for a core whose caller holds the blocks
// cached: each must be a block marked free, and each superblock's free
// blocks must be exactly its listed, uncarved and cached ones.
func checkCached(h *Hoard, cached []superblock.Block) error {
	counts := make(map[*superblock.Superblock]int)
	for _, b := range cached {
		sb, ok := superblock.FromPtr(h.space, b.P)
		if !ok || sb != b.SB || !sb.Contains(b.P) || !sb.IsFreeBlock(b.P) {
			return fmt.Errorf("cached block %#x is not a free block of its superblock", uint64(b.P))
		}
		counts[sb]++
	}
	return h.checkIntegrity(counts)
}

// cache sets the free bit of every application-held block of ps, as a
// thread cache's free does, and returns them with their superblocks.
func cache(h *Hoard, ps []alloc.Ptr) []superblock.Block {
	bs := make([]superblock.Block, len(ps))
	for i, p := range ps {
		sb, _ := superblock.FromPtr(h.space, p)
		sb.MarkCached(p)
		bs[i] = superblock.Block{P: p, SB: sb}
	}
	return bs
}

// TestChargingDiscipline asserts the surcharge semantics: every small malloc
// charges OpMallocFast exactly once; a slow-path malloc charges OpMallocSlow
// once IN ADDITION (never instead); the batch ops are one-per-call
// surcharges over the per-block charges.
func TestChargingDiscipline(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	ce := &chargeEnv{id: 0}
	th := h.NewThread(ce)

	// First malloc of a class misses everywhere: OS slow path. The fast
	// charge must still appear — the slow charge is a surcharge.
	p := h.Malloc(th, 100)
	if got := ce.counts[env.OpMallocFast]; got != 1 {
		t.Fatalf("slow-path malloc charged OpMallocFast %d times, want 1", got)
	}
	if got := ce.counts[env.OpMallocSlow]; got != 1 {
		t.Fatalf("slow-path malloc charged OpMallocSlow %d times, want 1", got)
	}

	// Second malloc of the class hits the heap: fast charge only.
	ce.reset()
	q := h.Malloc(th, 100)
	if got := ce.counts[env.OpMallocFast]; got != 1 {
		t.Fatalf("fast-path malloc charged OpMallocFast %d times, want 1", got)
	}
	if got := ce.counts[env.OpMallocSlow]; got != 0 {
		t.Fatalf("fast-path malloc charged OpMallocSlow %d times, want 0", got)
	}

	// A free charges OpFree exactly once.
	ce.reset()
	h.Free(th, p)
	h.Free(th, q)
	if got := ce.counts[env.OpFree]; got != 2 {
		t.Fatalf("2 frees charged OpFree %d times, want 2", got)
	}

	// A batch keeps the per-block charges and adds one batch op per call.
	ce.reset()
	out := refill(t, h, th, 100, 8)
	if got := ce.counts[env.OpMallocBatch]; got != 1 {
		t.Fatalf("mallocCached charged OpMallocBatch %d times, want 1", got)
	}
	if got := ce.counts[env.OpMallocFast]; got != 8 {
		t.Fatalf("mallocCached(8) charged OpMallocFast %d times, want 8", got)
	}
	ce.reset()
	h.freeCached(th.State.(*ThreadState), out)
	if got := ce.counts[env.OpFreeBatch]; got != 1 {
		t.Fatalf("freeCached charged OpFreeBatch %d times, want 1", got)
	}
	if got := ce.counts[env.OpFree]; got != 8 {
		t.Fatalf("freeCached(8) charged OpFree %d times, want 8", got)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestMallocBatchPartialAndSpanning refills a batch far larger than one
// superblock's capacity: the single critical section must pull several
// superblocks from the OS, and the flush of them all must leave the
// emptiness invariant restored.
func TestMallocBatchPartialAndSpanning(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	th := thread(h, 0)

	h.freeCached(th.State.(*ThreadState), refill(t, h, th, 64, 3))

	const want = 200
	out := refill(t, h, th, 1000, want)
	seen := make(map[alloc.Ptr]bool, want)
	for _, b := range out {
		p := b.P
		if p.IsNil() || seen[p] {
			t.Fatalf("nil or duplicate pointer %#x in batch", uint64(p))
		}
		seen[p] = true
		if us := h.UsableSize(p); us < 1000 {
			t.Fatalf("UsableSize = %d, want >= 1000", us)
		}
	}
	if err := checkCached(h, out); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	// BatchedBlocks counts both directions: 3 refilled + 3 flushed + 200.
	if st.BatchRefills != 2 || st.BatchedBlocks != want+6 {
		t.Fatalf("BatchRefills=%d BatchedBlocks=%d, want 2 and %d", st.BatchRefills, st.BatchedBlocks, want+6)
	}
	if st.OSReserves < 2 {
		t.Fatalf("OSReserves = %d, want several superblocks", st.OSReserves)
	}

	// The batch free of all of them must leave the emptiness invariant
	// restored even though it demands many evictions (the per-block path
	// would have evicted one per free).
	h.freeCached(th.State.(*ThreadState), out)
	hp := h.heaps[th.State.(*ThreadState).heapIdx]
	if hp.InvariantViolated() {
		t.Fatalf("emptiness invariant violated after batch free: u=%d a=%d", hp.U(), hp.A())
	}
	st = h.Stats()
	if st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after freeing everything", st.LiveBytes)
	}
	if st.BatchFlushes != 2 || st.BatchedBlocks != 2*(want+3) {
		t.Fatalf("BatchFlushes=%d BatchedBlocks=%d, want 2 and %d", st.BatchFlushes, st.BatchedBlocks, 2*(want+3))
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeBatchOwnerGroups flushes one batch holding blocks of two
// different heaps: the own-heap group frees under our lock, the foreign
// group under its owner's lock.
func TestFreeBatchOwnerGroups(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	t0 := thread(h, 0) // heap 1
	t1 := thread(h, 1) // heap 2

	var batch []alloc.Ptr
	for i := 0; i < 10; i++ {
		batch = append(batch, h.Malloc(t0, 64))
	}
	foreign := 0
	for i := 0; i < 7; i++ {
		batch = append(batch, h.Malloc(t1, 64))
		foreign++
	}

	h.freeCached(t0.State.(*ThreadState), cache(h, batch))
	st := h.Stats()
	if st.Frees != int64(len(batch)) {
		t.Fatalf("Frees = %d, want %d", st.Frees, len(batch))
	}
	if st.RemoteFrees != int64(foreign) {
		t.Fatalf("RemoteFrees = %d, want %d (the foreign owner group)", st.RemoteFrees, foreign)
	}
	if st.BatchFlushes != 1 {
		t.Fatalf("BatchFlushes = %d, want 1", st.BatchFlushes)
	}
	if live := h.Stats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d", live)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeBatchMixedOwners flushes one batch whose blocks span many
// superblocks of several classes, owned by the freeing thread's heap,
// another thread's heap, and the global heap: every touched superblock ends
// in its correct list with u matching (CheckIntegrity), the parked
// superblocks stay on the global heap, and the remote count covers every
// block another heap owns.
func TestFreeBatchMixedOwners(t *testing.T) {
	// K large enough that the batch evicts nothing.
	h := newHoard(Config{Heaps: 2, K: 1000})
	t0 := thread(h, 0) // heap 1
	t1 := thread(h, 1) // heap 2
	sizes := []int{16, 64, 200, 1000}
	var batch []alloc.Ptr
	for i := 0; i < 600; i++ {
		batch = append(batch, h.Malloc(t0, sizes[i%len(sizes)]))
	}
	for i := 0; i < 200; i++ {
		batch = append(batch, h.Malloc(t1, sizes[i%len(sizes)]))
	}
	foreign := 200 // heap 2's blocks, and below, the parked ones
	// Park two of heap 1's superblocks on the global heap, live blocks and
	// all, as an eviction would.
	hp, g := h.heaps[1], h.heaps[0]
	parked := map[*superblock.Superblock]bool{}
	for _, p := range batch[:2] {
		sb, _ := superblock.FromPtr(h.space, p)
		hp.Remove(sb)
		g.Insert(sb)
		parked[sb] = true
	}
	for _, p := range batch[:600] {
		if sb, _ := superblock.FromPtr(h.space, p); parked[sb] {
			foreign++
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	h.freeCached(t0.State.(*ThreadState), cache(h, batch))
	for sb := range parked {
		if sb.OwnerID() != 0 {
			t.Fatalf("parked superblock %#x: owner %d", sb.Base(), sb.OwnerID())
		}
	}
	st := h.Stats()
	if st.RemoteFrees != int64(foreign) || st.LiveBytes != 0 {
		t.Fatalf("RemoteFrees %d (want %d), LiveBytes %d", st.RemoteFrees, foreign, st.LiveBytes)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeBatchRemoteConcurrent flushes cross-heap batches while the owning
// thread refills and flushes on the same superblocks — run under -race, this
// exercises the owner-lock batch free against the owner's concurrent
// refills, frees, and evictions.
func TestFreeBatchRemoteConcurrent(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	class128, _ := h.classes.ClassFor(128)
	t0 := thread(h, 0)
	t1 := thread(h, 1)

	const rounds = 60
	const batchSize = 24
	ch := make(chan []superblock.Block, 4)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // owner: refills batches, hands them off, churns
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			out := make([]superblock.Block, batchSize)
			h.mallocCached(t0.State.(*ThreadState), class128, batchSize, out)
			ch <- out
			// Churn forces AllocBlock misses and refills while the
			// consumer's frees are in flight.
			var local []alloc.Ptr
			for i := 0; i < 40; i++ {
				local = append(local, h.Malloc(t0, 128))
			}
			h.freeCached(t0.State.(*ThreadState), cache(h, local))
		}
		close(ch)
	}()
	go func() { // consumer: flushes foreign blocks, as a remote batch does
		defer wg.Done()
		for b := range ch {
			h.freeCached(t1.State.(*ThreadState), b)
		}
	}()
	wg.Wait()

	if live := h.Stats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d after the run", live)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.RemoteFrees == 0 {
		t.Fatal("no remote frees — the foreign batches never reached their owner")
	}
}

// TestFreeBatchPanicSafety: a flush that meets a block the application
// still holds, its free bit clear, panics at the call; the blocks freed
// before it are accounted and the heap lock released before the panic
// propagates, so the allocator stays usable and intact.
func TestFreeBatchPanicSafety(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	th := thread(h, 0)
	ps := []alloc.Ptr{h.Malloc(th, 64), h.Malloc(th, 64), h.Malloc(th, 64)}
	bs := cache(h, ps[:2])
	held, _ := superblock.FromPtr(h.space, ps[2])
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("flush of an application-held block did not panic")
			}
		}()
		h.freeCached(th.State.(*ThreadState), append(bs, superblock.Block{P: ps[2], SB: held}))
	}()
	if st := h.Stats(); st.Frees != 2 || st.LiveBytes != int64(held.BlockSize()) {
		t.Fatalf("after the panic: %d frees, %d live bytes; want 2 and %d", st.Frees, st.LiveBytes, held.BlockSize())
	}
	done := make(chan struct{})
	go func() {
		h.Free(th, ps[2])
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Free after the panicking flush did not return: the heap lock is still held")
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
