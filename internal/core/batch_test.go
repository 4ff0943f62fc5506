package core

import (
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
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
	out := make([]alloc.Ptr, 8)
	n := h.MallocBatch(th, 100, 8, out)
	if n != 8 {
		t.Fatalf("MallocBatch = %d, want 8", n)
	}
	if got := ce.counts[env.OpMallocBatch]; got != 1 {
		t.Fatalf("MallocBatch charged OpMallocBatch %d times, want 1", got)
	}
	if got := ce.counts[env.OpMallocFast]; got != 8 {
		t.Fatalf("MallocBatch(8) charged OpMallocFast %d times, want 8", got)
	}
	ce.reset()
	h.FreeBatch(th, out)
	if got := ce.counts[env.OpFreeBatch]; got != 1 {
		t.Fatalf("FreeBatch charged OpFreeBatch %d times, want 1", got)
	}
	if got := ce.counts[env.OpFree]; got != 8 {
		t.Fatalf("FreeBatch(8) charged OpFree %d times, want 8", got)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestMallocBatchPartialAndSpanning(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	th := thread(h, 0)

	// n capped by len(out).
	small := make([]alloc.Ptr, 3)
	if n := h.MallocBatch(th, 64, 10, small); n != 3 {
		t.Fatalf("MallocBatch capped = %d, want 3", n)
	}
	h.FreeBatch(th, small)

	// A batch far larger than one superblock's capacity: the single
	// critical section must pull multiple superblocks from the OS.
	const want = 200
	out := make([]alloc.Ptr, want)
	if n := h.MallocBatch(th, 1000, want, out); n != want {
		t.Fatalf("MallocBatch = %d, want %d", n, want)
	}
	seen := make(map[alloc.Ptr]bool, want)
	for _, p := range out {
		if p.IsNil() || seen[p] {
			t.Fatalf("nil or duplicate pointer %#x in batch", uint64(p))
		}
		seen[p] = true
		if us := h.UsableSize(p); us < 1000 {
			t.Fatalf("UsableSize = %d, want >= 1000", us)
		}
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
	h.FreeBatch(th, out)
	hp := h.heaps[th.State.(*threadState).heapIdx]
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

// TestFreeBatchOwnerGroups frees one batch holding blocks of two different
// heaps, a large object, and nils: the own-heap group frees under our lock,
// the foreign group under its owner's lock, the large object is released
// inline.
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
	batch = append(batch, h.Malloc(t0, h.classes.MaxSize()+1)) // large
	batch = append(batch, 0)                                   // nil: skipped

	h.FreeBatch(t0, batch)
	st := h.Stats()
	if st.Frees != int64(len(batch)-1) {
		t.Fatalf("Frees = %d, want %d", st.Frees, len(batch)-1)
	}
	if st.RemoteFrees != int64(foreign) {
		t.Fatalf("RemoteFrees = %d, want %d (the foreign owner group)", st.RemoteFrees, foreign)
	}
	if live := h.Stats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d", live)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeBatchRemoteConcurrent frees cross-heap batches while the owning
// thread allocates and frees on the same superblocks — run under -race, this
// exercises the owner-lock batch free against the owner's concurrent
// refills, frees, and evictions.
func TestFreeBatchRemoteConcurrent(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	t0 := thread(h, 0)
	t1 := thread(h, 1)

	const rounds = 60
	const batchSize = 24
	ch := make(chan []alloc.Ptr, 4)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // owner: allocates batches, hands them off, churns
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			out := make([]alloc.Ptr, batchSize)
			h.MallocBatch(t0, 128, batchSize, out)
			ch <- out
			// Churn forces AllocBlock misses and refills while the
			// consumer's frees are in flight.
			var local []alloc.Ptr
			for i := 0; i < 40; i++ {
				local = append(local, h.Malloc(t0, 128))
			}
			h.FreeBatch(t0, local)
		}
		close(ch)
	}()
	go func() { // consumer: batch-frees foreign blocks
		defer wg.Done()
		for ps := range ch {
			h.FreeBatch(t1, ps)
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
