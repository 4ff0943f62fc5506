package hoard

import (
	"math"
	"math/rand"
	"testing"
)

// TestChurnFootprintGuard bounds the footprint a thread's magazines add on
// a deterministic single-thread churn over the public API: 1024 live slots
// of 16..2048 B, log-uniform, each replacement freeing a random slot's block
// and allocating a new one. Peak footprint over the driver's peak live bytes
// must stay at most 1.80 on both backends. Caching 64 blocks of every class
// reads about 1.87 here; the 32 KiB per-class byte budget brings it to about
// 1.74.
func TestChurnFootprintGuard(t *testing.T) {
	const slots, replacements, maxRatio = 1024, 1 << 18, 1.80
	for _, backend := range []string{"sim", "arena"} {
		t.Run(backend, func(t *testing.T) {
			a := MustNew(Config{Backend: backend})
			defer a.Close()
			if a.Backend() != backend {
				t.Skipf("backend %s unavailable: %s", backend, a.BackendFallbackReason())
			}
			th := a.NewThread()
			rng := rand.New(rand.NewSource(1))
			size := func() int { return int(16 * math.Exp(rng.Float64()*math.Log(2048.0/16))) }
			held := make([]Ptr, slots)
			var live, peak int64
			malloc := func(i int) {
				held[i] = th.Malloc(size())
				live += int64(th.UsableSize(held[i]))
				peak = max(peak, live)
			}
			for i := range held {
				malloc(i)
			}
			for range replacements {
				i := rng.Intn(slots)
				live -= int64(th.UsableSize(held[i]))
				th.Free(held[i])
				malloc(i)
			}
			ratio := float64(a.Stats().PeakFootprintBytes) / float64(peak)
			t.Logf("peak footprint %d B over driver peak %d B: %.3f", a.Stats().PeakFootprintBytes, peak, ratio)
			if ratio > maxRatio {
				t.Fatalf("peak footprint ratio %.3f > %.2f", ratio, maxRatio)
			}
			for _, p := range held {
				th.Free(p)
			}
			th.Close()
			if err := a.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
