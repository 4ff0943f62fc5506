package privateheap

import (
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/alloctest"
	"hoardgo/internal/env"
)

var lf = env.RealLockFactory{}

// newThreshold returns a threshold allocator with batch size lo.
func newThreshold(lo int) *Allocator {
	a := NewThreshold(lf)
	a.watermark = lo
	return a
}

func TestConformance(t *testing.T) {
	for name, mk := range map[string]func() alloc.Allocator{
		"private":              func() alloc.Allocator { return NewPrivate() },
		"threshold":            func() alloc.Allocator { return NewThreshold(lf) },
		"threshold-watermark8": func() alloc.Allocator { return newThreshold(8) },
	} {
		t.Run(name, func(t *testing.T) { alloctest.Run(t, mk) })
	}
}

// TestUnboundedBlowup demonstrates the paper's §2.2 failure mode: under a
// producer-consumer pattern, pure private heaps strand freed memory on the
// consumer's lists and committed memory grows linearly with rounds even
// though the program's live set is constant.
func TestUnboundedBlowup(t *testing.T) {
	a := NewPrivate()
	producer := a.NewThread(&env.RealEnv{ID: 0})
	consumer := a.NewThread(&env.RealEnv{ID: 1})
	const batch = 100
	runRounds := func(n int) int64 {
		for r := 0; r < n; r++ {
			ps := make([]alloc.Ptr, batch)
			for i := range ps {
				ps[i] = a.Malloc(producer, 64)
			}
			for _, p := range ps {
				a.Free(consumer, p)
			}
		}
		return a.Space().Committed()
	}
	c10 := runRounds(10)
	c50 := runRounds(40)
	if c50 < 3*c10 {
		t.Fatalf("committed memory did not blow up: %d after 10 rounds, %d after 50", c10, c50)
	}
	if got := a.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d; blowup must come from stranded frees, not leaks", got)
	}
	class, _ := a.classes.ClassFor(64)
	if n := consumer.State.(*threadState).lists[class].count; n != 50*batch {
		t.Fatalf("%d blocks stranded on the consumer's list, want %d", n, 50*batch)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfFreeingReuses checks the flip side: a thread that frees its own
// memory reuses it, so single-threaded usage stays bounded.
func TestSelfFreeingReuses(t *testing.T) {
	a := NewPrivate()
	th := a.NewThread(&env.RealEnv{})
	for r := 0; r < 100; r++ {
		ps := make([]alloc.Ptr, 100)
		for i := range ps {
			ps[i] = a.Malloc(th, 64)
		}
		for _, p := range ps {
			a.Free(th, p)
		}
	}
	// 100 x 64B = 6400 bytes live at peak; a handful of spans suffices.
	if got := a.Space().Committed(); got > 64*1024 {
		t.Fatalf("self-freeing thread committed %d bytes; should reuse its free lists", got)
	}
}

func TestFreeListLIFO(t *testing.T) {
	a := NewPrivate()
	th := a.NewThread(&env.RealEnv{})
	p := a.Malloc(th, 64)
	q := a.Malloc(th, 64)
	a.Free(th, p)
	a.Free(th, q)
	if got := a.Malloc(th, 64); got != q {
		t.Fatalf("expected LIFO reuse of %#x, got %#x", uint64(q), uint64(got))
	}
}

// TestBoundedBlowup checks the threshold design's claim: producer-consumer
// stranding is capped by the watermark, so memory stays bounded (unlike
// pure private heaps).
func TestBoundedBlowup(t *testing.T) {
	a := newThreshold(16)
	producer := a.NewThread(&env.RealEnv{ID: 0})
	consumer := a.NewThread(&env.RealEnv{ID: 1})
	const batch = 200
	var after10 int64
	for r := 0; r < 100; r++ {
		ps := make([]alloc.Ptr, batch)
		for i := range ps {
			ps[i] = a.Malloc(producer, 64)
		}
		for _, p := range ps {
			a.Free(consumer, p)
		}
		if r == 9 {
			after10 = a.Space().Committed()
		}
	}
	if got := a.Space().Committed(); got > 2*after10 {
		t.Fatalf("memory grew %d -> %d across rounds; thresholds should bound it", after10, got)
	}
	if spills, refills := a.spills.Load(), a.refills.Load(); spills == 0 || refills == 0 {
		t.Fatalf("spills=%d refills=%d; watermark machinery never engaged", spills, refills)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillTriggersAtHighWatermark pins the watermark mechanics.
func TestSpillTriggersAtHighWatermark(t *testing.T) {
	const lo = 4
	a := newThreshold(lo)
	th := a.NewThread(&env.RealEnv{})
	// Allocate and free enough blocks of one class to cross 2*lo.
	var ps []alloc.Ptr
	for i := 0; i < 3*lo; i++ {
		ps = append(ps, a.Malloc(th, 64))
	}
	spills0 := a.spills.Load()
	for _, p := range ps {
		a.Free(th, p)
	}
	if a.spills.Load() == spills0 {
		t.Fatal("no spill despite crossing the high watermark")
	}
	class, _ := a.classes.ClassFor(64)
	if n := th.State.(*threadState).lists[class].count; n > 2*lo {
		t.Fatalf("thread cache holds %d blocks, above high watermark %d", n, 2*lo)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchRefill checks that an empty cache refills a full batch with one
// pool interaction.
func TestBatchRefill(t *testing.T) {
	const lo = 8
	a := newThreshold(lo)
	th := a.NewThread(&env.RealEnv{})
	r0 := a.refills.Load()
	for i := 0; i < lo; i++ {
		a.Malloc(th, 64)
	}
	if n := a.refills.Load() - r0; n != 1 {
		t.Fatalf("%d refills for %d allocations; want one batch", n, lo)
	}
}

// TestObjectGranularityMigration shows why the threshold design still
// false-shares: blocks freed by one thread and spilled can be refilled by
// another thread, splitting a cache line between threads.
func TestObjectGranularityMigration(t *testing.T) {
	const lo = 4
	a := newThreshold(lo)
	t0 := a.NewThread(&env.RealEnv{ID: 0})
	t1 := a.NewThread(&env.RealEnv{ID: 1})
	var ps []alloc.Ptr
	for i := 0; i < 4*lo; i++ {
		ps = append(ps, a.Malloc(t0, 64))
	}
	for _, p := range ps {
		a.Free(t0, p) // spills past watermark into global pool
	}
	got := a.Malloc(t1, 64)
	found := false
	for _, p := range ps {
		if p == got {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("thread 1 did not receive a block previously owned by thread 0's cache")
	}
}
