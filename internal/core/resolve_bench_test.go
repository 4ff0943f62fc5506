package core

import (
	"math/rand"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/vm"
)

func benchBackend(b *testing.B, name string) *Hoard {
	b.Helper()
	h := New(Config{Backend: name}, env.RealLockFactory{})
	if h.Backend() != name {
		b.Skipf("backend %q unavailable: %v", name, h.BackendFallbackReason())
	}
	b.Cleanup(func() { h.Space().Close() })
	return h
}

// BenchmarkResolveFree pins the free path's pointer→superblock resolution
// cost on both backends. "resolve" is the raw Lookup (the slot table's
// address arithmetic on either memory); "mallocfree" is the full operation
// pair, which performs exactly one resolution per free (it used to do two —
// one for the span, one for the large-object check).
func BenchmarkResolveFree(b *testing.B) {
	for _, backend := range []string{"sim", "arena"} {
		b.Run(backend, func(b *testing.B) {
			h := benchBackend(b, backend)
			th := h.NewThread(&env.RealEnv{ID: 0})
			// A working set large enough (64 Ki blocks over ~512
			// superblocks) that resolution is not served from a warm L1
			// line, shuffled so consecutive frees hit different
			// superblocks — the pattern of a real producer/consumer free
			// stream.
			const live = 1 << 16
			ps := make([]alloc.Ptr, live)
			for i := range ps {
				ps[i] = h.Malloc(th, 64)
			}
			rng := rand.New(rand.NewSource(42))
			rng.Shuffle(live, func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			b.Run("resolve", func(b *testing.B) {
				var sink *vm.Span
				for i := 0; i < b.N; i++ {
					sink = h.resolve("bench", ps[i&(live-1)])
				}
				if sink == nil {
					b.Fatal("resolve returned nil")
				}
			})
			b.Run("mallocfree", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := h.Malloc(th, 64)
					h.Free(th, p)
				}
			})
			for _, p := range ps {
				h.Free(th, p)
			}
		})
	}
}
