package private

import (
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/alloctest"
	"hoardgo/internal/env"
)

func TestConformance(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator {
		return New(env.RealLockFactory{})
	})
}

// TestUnboundedBlowup demonstrates the paper's §2.2 failure mode: under a
// producer-consumer pattern, pure private heaps strand freed memory on the
// consumer's lists and committed memory grows linearly with rounds even
// though the program's live set is constant.
func TestUnboundedBlowup(t *testing.T) {
	a := New(env.RealLockFactory{})
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
	if stranded := a.FreeListBytes(); stranded == 0 {
		t.Fatal("no bytes stranded on consumer free lists")
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfFreeingReuses checks the flip side: a thread that frees its own
// memory reuses it, so single-threaded usage stays bounded.
func TestSelfFreeingReuses(t *testing.T) {
	a := New(env.RealLockFactory{})
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
	a := New(env.RealLockFactory{})
	th := a.NewThread(&env.RealEnv{})
	p := a.Malloc(th, 64)
	q := a.Malloc(th, 64)
	a.Free(th, p)
	a.Free(th, q)
	if got := a.Malloc(th, 64); got != q {
		t.Fatalf("expected LIFO reuse of %#x, got %#x", uint64(q), uint64(got))
	}
}
