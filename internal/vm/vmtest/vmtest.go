// Package vmtest constructs vm spaces for tests. The suites that exercise
// allocator logic (superblock, heap, core) build their backing store through
// NewSized, so setting HOARDGO_BACKEND=arena runs the very same tests over real
// mmap'd memory — that is how `make race-arena` gives the arena full
// protocol coverage without duplicating a single test.
package vmtest

import (
	"errors"
	"os"
	"testing"

	"hoardgo/internal/vm"
)

// NewSized returns a small Space over the memory HOARDGO_BACKEND selects:
// simulated by default, the arena when set to "arena" (skipping the test on
// platforms without one). spanSize is the slot size (the superblock size the
// test uses), so superblock-sized reserves resolve through the slot table
// just as they do in production; zero means the default S. Cleanup closes
// the Space. Tests that assert simulated-memory specifics, such as
// deterministic base addresses, should call vm.New directly instead.
func NewSized(tb testing.TB, spanSize int) vm.Backend {
	if os.Getenv("HOARDGO_BACKEND") == "arena" {
		return NewArena(tb, spanSize)
	}
	return NewSim(tb, spanSize)
}

// NewSim returns a small Space over the simulated memory regardless of
// HOARDGO_BACKEND. Cleanup closes it.
func NewSim(tb testing.TB, spanSize int) vm.Backend {
	return open(tb, vm.NewSim, spanSize)
}

// NewArena returns a small arena Space regardless of HOARDGO_BACKEND,
// skipping the test on platforms without arena support. Cleanup closes it.
func NewArena(tb testing.TB, spanSize int) vm.Backend {
	return open(tb, vm.NewArena, spanSize)
}

// open builds a small Space with newSpace, skipping the test on a platform
// without that memory, and closes it on cleanup. Tests create many
// spaces, and while the regions are virtual-only, the slot table is real Go
// memory proportional to the slot region's size, hence the small regions.
func open(tb testing.TB, newSpace func(vm.ArenaOptions) (vm.Backend, error), spanSize int) vm.Backend {
	be, err := newSpace(vm.ArenaOptions{
		SpanSize:         spanSize,
		SlotRegionBytes:  64 << 20,
		LargeRegionBytes: 64 << 20,
	})
	if errors.Is(err, vm.ErrArenaUnsupported) {
		tb.Skipf("backend unavailable: %v", err)
	}
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := be.Close(); err != nil {
			tb.Errorf("close: %v", err)
		}
	})
	return be
}
