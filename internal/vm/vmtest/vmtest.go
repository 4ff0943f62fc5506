// Package vmtest constructs vm backends for tests. The suites that exercise
// allocator logic (superblock, heap, core) build their backing store through
// NewSized, so setting HOARDGO_BACKEND=arena runs the very same tests over real
// mmap'd memory — that is how `make race-arena` gives the arena backend
// full protocol coverage without duplicating a single test.
package vmtest

import (
	"os"
	"testing"

	"hoardgo/internal/vm"
)

// testArenaOptions keeps per-test arenas small: tests create many backends,
// and while the reservation is virtual-only, the slot and page index tables
// are real Go memory proportional to the region sizes.
func testArenaOptions(spanSize int) vm.ArenaOptions {
	return vm.ArenaOptions{
		SpanSize:         spanSize,
		SlotRegionBytes:  64 << 20,
		LargeRegionBytes: 64 << 20,
	}
}

// NewSized returns the backend selected by HOARDGO_BACKEND: the simulated
// space by default, the arena when set to "arena" (skipping the test on
// platforms without one). spanSize is the arena span size (the superblock
// size the test uses), so superblock-sized reserves land in the
// arithmetic-resolution slot region just as they do in production; zero
// means the default S. Cleanup closes the backend. Tests that assert
// simulated-backend specifics — poison bytes, deterministic base addresses
// — should call vm.New directly instead.
func NewSized(tb testing.TB, spanSize int) vm.Backend {
	if os.Getenv("HOARDGO_BACKEND") == "arena" {
		return NewArena(tb, spanSize)
	}
	return vm.New()
}

// NewArena returns a small arena backend regardless of HOARDGO_BACKEND,
// skipping the test on platforms without arena support. Cleanup closes it.
func NewArena(tb testing.TB, spanSize int) vm.Backend {
	be, err := vm.NewArena(testArenaOptions(spanSize))
	if err != nil {
		tb.Skipf("arena backend unavailable: %v", err)
	}
	tb.Cleanup(func() {
		if err := be.Close(); err != nil {
			tb.Errorf("arena close: %v", err)
		}
	})
	return be
}
