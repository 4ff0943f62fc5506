package core

import (
	"errors"
	"strings"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// TestBackendDefaultIsSim pins the default: no Backend in the Config (and
// no HOARDGO_BACKEND override) means the deterministic simulated space.
func TestBackendDefaultIsSim(t *testing.T) {
	if envBackend() != "" {
		// The whole-suite override (make race-arena) is in effect; the
		// zero config intentionally follows it.
		t.Skipf("HOARDGO_BACKEND=%q overrides the default", envBackend())
	}
	h := New(Config{}, env.RealLockFactory{})
	if got := h.Backend(); got != "sim" {
		t.Fatalf("default backend = %q, want sim", got)
	}
	if h.BackendFallbackReason() != "" || h.Stats().BackendFallbacks != 0 {
		t.Fatalf("sim default recorded a fallback: %q", h.BackendFallbackReason())
	}
}

// TestBackendFallbackOnArenaFailure is the satellite's core guarantee: when
// the arena cannot be created (non-Linux, ulimit, overcommit off — injected
// here since those are hard to provoke portably), Config{Backend: "arena"}
// degrades to the simulated backend with the reason recorded in the stats,
// instead of panicking. The allocator must be fully functional afterwards.
func TestBackendFallbackOnArenaFailure(t *testing.T) {
	orig := newArenaBackend
	newArenaBackend = func(vm.ArenaOptions) (vm.Backend, error) {
		return nil, errors.New("mmap: cannot allocate memory")
	}
	defer func() { newArenaBackend = orig }()

	h := New(Config{Backend: "arena"}, env.RealLockFactory{})
	if got := h.Backend(); got != "sim" {
		t.Fatalf("backend after failed arena = %q, want sim", got)
	}
	if got := h.Stats().BackendFallbacks; got != 1 {
		t.Fatalf("BackendFallbacks = %d, want 1", got)
	}
	if reason := h.BackendFallbackReason(); !strings.Contains(reason, "cannot allocate memory") {
		t.Fatalf("fallback reason %q does not carry the cause", reason)
	}

	// The degraded allocator still allocates.
	th := h.NewThread(&env.RealEnv{ID: 1})
	p := h.Malloc(th, 128)
	h.Bytes(p, 128)[0] = 0xA5
	h.Free(th, p)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendUnknownEnvFallsBack: garbage in HOARDGO_BACKEND must not panic
// a binary that never asked for it — it degrades to sim with the reason
// recorded.
func TestBackendUnknownEnvFallsBack(t *testing.T) {
	be, reason := openBackend(Config{Backend: "warp-drive"})
	if be.Name() != "sim" || !strings.Contains(reason, "warp-drive") {
		t.Fatalf("openBackend(warp-drive) = %s, %q", be.Name(), reason)
	}
}

// TestBackendExplicitUnknownRejected: an explicit unknown Config.Backend is
// a programming error and is rejected by validation.
func TestBackendExplicitUnknownRejected(t *testing.T) {
	if err := (Config{Backend: "warp-drive"}.withDefaults()).validate(); err == nil {
		t.Fatal("unknown explicit backend passed validation")
	}
}

// TestBackendArena runs a small allocation workload on a real arena and
// checks the arena actually served it (no silent fallback).
func TestBackendArena(t *testing.T) {
	h := New(Config{Backend: "arena"}, env.RealLockFactory{})
	if h.Backend() != "arena" {
		t.Skipf("arena unavailable: %v", h.BackendFallbackReason())
	}
	defer h.Space().Close()
	th := h.NewThread(&env.RealEnv{ID: 1})
	var ps []struct {
		p    uint64
		size int
	}
	for i := 0; i < 2000; i++ {
		size := 16 << (i % 6)
		p := h.Malloc(th, size)
		buf := h.Bytes(p, size)
		for j := range buf {
			buf[j] = byte(i)
		}
		ps = append(ps, struct {
			p    uint64
			size int
		}{uint64(p), size})
	}
	// Large objects too: they take the arena's variable-size region.
	big := h.Malloc(th, 128<<10)
	h.Bytes(big, 128<<10)[128<<10-1] = 0xEE
	for i, rec := range ps {
		buf := h.Bytes(alloc.Ptr(rec.p), rec.size)
		for j := range buf {
			if buf[j] != byte(i) {
				t.Fatalf("block %d corrupted at byte %d", i, j)
			}
		}
		h.Free(th, alloc.Ptr(rec.p))
	}
	h.Free(th, big)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if st := h.Space().Stats(); st.Reserves == 0 {
		t.Fatal("arena served no reservations")
	}
}

// TestSlotsResolveSuperblocks: on either memory a superblock pointer
// resolves through the allocator's copy of the slot table, the hit paths'
// call-free lookup, and a large object does not (it resolves through
// resolve's page-table walk).
func TestSlotsResolveSuperblocks(t *testing.T) {
	for _, backend := range []string{"sim", "arena"} {
		t.Run(backend, func(t *testing.T) {
			h := New(Config{Backend: backend}, env.RealLockFactory{})
			if h.Backend() != backend {
				t.Skipf("backend %s unavailable: %s", backend, h.BackendFallbackReason())
			}
			defer h.Space().Close()
			th := h.NewThread(&env.RealEnv{ID: 1})
			p := h.Malloc(th, 64)
			sp := h.slots.Lookup(uint64(p))
			if sp == nil {
				t.Fatalf("superblock pointer %#x missed the slot table", uint64(p))
			}
			if _, ok := sp.Owner.(*superblock.Superblock); !ok || sp != h.resolve("test", p) {
				t.Fatalf("slot table resolved %#x to %v, not its superblock's span", uint64(p), sp.Owner)
			}
			big := h.Malloc(th, 64<<10)
			if sp := h.slots.Lookup(uint64(big)); sp != nil {
				t.Fatalf("large object %#x in the slot table", uint64(big))
			}
			if _, ok := h.resolve("test", big).Owner.(*alloc.LargeObj); !ok {
				t.Fatal("large object did not resolve to its span")
			}
			h.Free(th, p)
			h.Free(th, big)
		})
	}
}
