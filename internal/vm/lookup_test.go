package vm

import (
	"fmt"
	"testing"
)

// lookupSpanSize is the superblock size the lookup measurements reserve.
const lookupSpanSize = 8192

// lookupSpans is the cache-hostile span population: 512 MiB of superblocks,
// enough that the slot table and the span headers fall out of L2, so a
// lookup pays memory latency. At small populations it takes a few ns.
const lookupSpans = 1 << 16

// lookupBackend returns a fresh Space over the named memory ("sim" or
// "arena") with slot room for spans superblocks; the arena errors where it
// is unavailable.
func lookupBackend(name string, spans int) (Backend, error) {
	opts := ArenaOptions{
		SpanSize:         lookupSpanSize,
		SlotRegionBytes:  int64(spans)*lookupSpanSize + 64<<20,
		LargeRegionBytes: 16 << 20,
	}
	if name == "sim" {
		return NewSim(opts)
	}
	return NewArena(opts)
}

// lookupAddrs reserves spans superblocks (a power of two) on be and returns
// 1 Mi random interior addresses in them. A loop over the array streams
// through it (prefetchable) while the lookups land at random (not);
// xorshift64 keeps the addresses the same on every run.
func lookupAddrs(be Backend, spans int) []uint64 {
	bases := make([]uint64, spans)
	for i := range bases {
		bases[i] = be.Reserve(lookupSpanSize, lookupSpanSize, nil).Base
	}
	addrs := make([]uint64, 1<<20)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		addrs[i] = bases[state&uint64(spans-1)] + (state>>40)%lookupSpanSize
	}
	return addrs
}

// BenchmarkLookup times random interior lookups through Space.Lookup, the
// call the free path's fallback pays, on the simulated memory and on the
// arena, at 128 spans and at lookupSpans. The arena arms are skipped where
// the arena is unavailable.
func BenchmarkLookup(b *testing.B) {
	for _, name := range []string{"sim", "arena"} {
		for _, spans := range []int{128, lookupSpans} {
			// Built on the arm's first run and kept across the runs
			// that grow b.N: a cleanup registered on b would close
			// the arena after the first of them.
			var be Backend
			var addrs []uint64
			b.Run(fmt.Sprintf("%s/spans=%d", name, spans), func(b *testing.B) {
				if be == nil {
					var err error
					if be, err = lookupBackend(name, spans); err != nil {
						b.Skipf("arena backend unavailable: %v", err)
					}
					addrs = lookupAddrs(be, spans)
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if be.Lookup(addrs[i&(len(addrs)-1)]) == nil {
						b.Fatal("lookup missed a live span")
					}
				}
			})
			if be != nil {
				be.Close()
			}
		}
	}
}
