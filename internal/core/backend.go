package core

import (
	"os"
	"sync"

	"hoardgo/internal/vm"
)

// newArenaBackend constructs the arena backend. It is a variable so the
// fallback tests can inject creation failures (the real failure modes —
// non-Linux platforms, ulimit-restricted address space, overcommit
// disabled — are hard to provoke portably).
var newArenaBackend = vm.NewArena

// envBackend reads the HOARDGO_BACKEND environment variable once. Setting
// it to "arena" runs every allocator whose Config does not pin a backend on
// real memory — this is how `make race-arena` drives the existing test
// suite over the arena.
var envBackend = sync.OnceValue(func() string { return os.Getenv("HOARDGO_BACKEND") })

// openBackend resolves the configured backend name and builds a Space over
// that memory, its slot size the superblock size. The simulated memory is
// the default; a requested arena that cannot be created (or an unrecognized
// HOARDGO_BACKEND value) degrades to the simulated memory with the reason
// recorded rather than panicking, so the same binary runs on every
// platform.
func openBackend(cfg Config) (vm.Backend, string) {
	name := cfg.Backend
	if name == "" {
		name = envBackend()
	}
	opts := vm.ArenaOptions{SpanSize: cfg.SuperblockSize}
	reason := ""
	switch name {
	case "", "sim":
	case "arena":
		be, err := newArenaBackend(opts)
		if err == nil {
			return be, ""
		}
		reason = err.Error()
	default:
		reason = "unknown backend \"" + name + "\""
	}
	be, err := vm.NewSim(opts)
	if err != nil {
		panic(err) // unreachable: validate checked the superblock size
	}
	return be, reason
}
