package core

import (
	"math"
	"math/rand"
	"testing"

	"hoardgo/internal/alloc"
)

// churnReserves runs one thread on a default Hoard that keeps 1024 slots of
// 16..2048-byte blocks live, replacing a random slot per step, and returns
// how many superblocks the allocator reserved from the OS over replacements
// steps after a warm-up of the same length.
func churnReserves(t *testing.T, replacements int) int64 {
	t.Helper()
	h := newHoard(Config{})
	th := thread(h, 0)
	rng := rand.New(rand.NewSource(1))
	slots := make([]alloc.Ptr, 1024)
	// Log-uniform, so every size class between 16 and 2048 B sees a
	// similar share of requests.
	size := func() int { return int(16 * math.Exp(rng.Float64()*math.Log(2048.0/16))) }
	for i := range slots {
		slots[i] = h.Malloc(th, size())
	}
	replace := func(n int) {
		for i := 0; i < n; i++ {
			j := rng.Intn(len(slots))
			h.Free(th, slots[j])
			slots[j] = h.Malloc(th, size())
		}
	}
	replace(replacements)
	before := h.Stats().OSReserves
	replace(replacements)
	reserves := h.Stats().OSReserves - before
	for _, p := range slots {
		h.Free(th, p)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	return reserves
}

// TestChurnFootprintDoesNotCreep pins the fix for the footprint creep the
// lock-free warm path had: its CAS frees emptied superblocks the heap's
// books still grouped as partly full, so the malloc slow path missed them
// and reserved fresh superblocks from the OS at about one per thousand ops
// (136 over this run). Under the locked protocol every free regroups its
// superblock at once, and a steady churn reuses what it freed: this run
// reserves 5 (5 to 15 over seeds 1 to 6), from the random walk of the live
// set's per-class mix.
func TestChurnFootprintDoesNotCreep(t *testing.T) {
	const maxReserves = 16
	if got := churnReserves(t, 64<<10); got > maxReserves {
		t.Fatalf("64 Ki replacements after warm-up reserved %d superblocks from the OS, want at most %d", got, maxReserves)
	}
}
