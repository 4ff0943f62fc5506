package vm

import (
	"fmt"
	"testing"
	"time"
)

// lookupSpanSize is the superblock size the lookup measurements reserve.
const lookupSpanSize = 8192

// lookupSpans is the cache-hostile span population: 512 MiB of superblocks,
// enough that the simulated space's page-table entry arrays and span headers
// fall out of L2, so its two dependent loads pay memory latency against the
// arena's one slot load. At small populations both resolve in a few ns.
const lookupSpans = 1 << 16

// lookupBackend returns a fresh backend of the named kind ("sim" or
// "arena") with room for spans superblocks; the arena errors where it is
// unavailable.
func lookupBackend(name string, spans int) (Backend, error) {
	if name == "sim" {
		return New(), nil
	}
	return NewArena(ArenaOptions{
		SpanSize:         lookupSpanSize,
		SlotRegionBytes:  int64(spans)*lookupSpanSize + 64<<20,
		LargeRegionBytes: 16 << 20,
	})
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

// BenchmarkLookup times random interior lookups through the Backend
// interface, the indirection the free path pays, on the simulated space and
// on the arena, at 128 spans and at lookupSpans. The arena arms are skipped
// where the arena is unavailable.
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

// TestArenaLookupNotSlower requires the arena's address arithmetic to
// resolve random interior addresses at lookupSpans no slower than the
// simulated space's page table. The ratio is wall clock and shared machines
// are noisy (it reads 3-8x on 2 vCPUs), so only >= 1x is required.
func TestArenaLookupNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	arena, err := lookupBackend("arena", lookupSpans)
	if err != nil {
		t.Skipf("arena backend unavailable: %v", err)
	}
	defer arena.Close()
	sim, _ := lookupBackend("sim", lookupSpans)
	simNS, arenaNS := timeLookups(t, sim), timeLookups(t, arena)
	t.Logf("sim %.2f ns vs arena %.2f ns per lookup: %.2fx", simNS, arenaNS, simNS/arenaNS)
	if arenaNS > simNS {
		t.Fatalf("arena lookup %.2f ns slower than sim's %.2f ns", arenaNS, simNS)
	}
}

// timeLookups returns wall ns per random interior lookup on be at
// lookupSpans.
func timeLookups(t *testing.T, be Backend) float64 {
	addrs := lookupAddrs(be, lookupSpans)
	const lookups = 1 << 23
	start := time.Now()
	for i := 0; i < lookups; i++ {
		if be.Lookup(addrs[i&(len(addrs)-1)]) == nil {
			t.Fatalf("%s: lookup missed a live span", be.Name())
		}
	}
	return float64(time.Since(start).Nanoseconds()) / lookups
}
