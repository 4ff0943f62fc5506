package debugalloc

import (
	"strings"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
)

var lf = env.RealLockFactory{}

func newDebug(q int) *Allocator {
	return New(core.New(core.Config{Heaps: 2}, lf), Config{Quarantine: q})
}

func thread(a *Allocator) *alloc.Thread { return a.NewThread(&env.RealEnv{}) }

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want substring %q", r, want)
		}
	}()
	f()
}

func TestCleanLifecycle(t *testing.T) {
	a := newDebug(-1) // no quarantine: frees are immediate
	th := thread(a)
	var ps []alloc.Ptr
	for i := 0; i < 500; i++ {
		p := a.Malloc(th, 1+i%300)
		buf := a.Bytes(p, 1+i%300)
		for j := range buf {
			buf[j] = byte(i)
		}
		ps = append(ps, p)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		a.Free(th, p)
	}
	if got := a.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d", got)
	}
	if got := a.Inner().Stats().LiveBytes; got != 0 {
		t.Fatalf("inner LiveBytes = %d", got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestOverflowDetected(t *testing.T) {
	a := newDebug(-1)
	th := thread(a)
	p := a.Malloc(th, 64)
	// Overflow one byte past the user area via the inner space.
	a.Inner().Space().Bytes(uint64(p)+64, 1)[0] = 0x42
	mustPanic(t, "rear canary", func() { a.Free(th, p) })
}

func TestUnderflowDetected(t *testing.T) {
	a := newDebug(-1)
	th := thread(a)
	p := a.Malloc(th, 64)
	a.Inner().Space().Bytes(uint64(p)-1, 1)[0] = 0x42
	mustPanic(t, "front canary", func() { a.Free(th, p) })
}

func TestUseAfterFreeWriteDetected(t *testing.T) {
	a := newDebug(4)
	th := thread(a)
	p := a.Malloc(th, 64)
	a.Free(th, p) // quarantined, poisoned
	// Dirty the freed memory behind the allocator's back.
	a.Inner().Space().Bytes(uint64(p)+10, 1)[0] = 0x99
	if err := a.CheckIntegrity(); err == nil {
		t.Fatal("integrity missed a use-after-free write")
	}
	mustPanic(t, "use-after-free", func() {
		// Push enough frees to evict p from quarantine.
		for i := 0; i < 8; i++ {
			a.Free(th, a.Malloc(th, 64))
		}
	})
}

func TestDoubleFreeDetected(t *testing.T) {
	a := newDebug(8)
	th := thread(a)
	p := a.Malloc(th, 64)
	a.Free(th, p)
	mustPanic(t, "already-freed", func() { a.Free(th, p) })
}

func TestQuarantineDelaysReuse(t *testing.T) {
	const q = 8
	a := newDebug(q)
	th := thread(a)
	p := a.Malloc(th, 64)
	a.Free(th, p)
	// Immediately reallocating must NOT return the same block (it is in
	// quarantine).
	seen := map[alloc.Ptr]bool{}
	for i := 0; i < q-1; i++ {
		np := a.Malloc(th, 64)
		if np == p {
			t.Fatalf("quarantined block %#x reissued after %d allocs", uint64(p), i)
		}
		seen[np] = true
	}
	if got := a.Inner().Stats().LiveBytes; got == 0 {
		t.Fatal("inner should still hold the quarantined block")
	}
	a.FlushQuarantine(th)
}

func TestFlushQuarantineDrainsInner(t *testing.T) {
	a := newDebug(16)
	th := thread(a)
	for i := 0; i < 10; i++ {
		a.Free(th, a.Malloc(th, 100))
	}
	if got := a.Inner().Stats().LiveBytes; got == 0 {
		t.Fatal("quarantine empty before flush")
	}
	a.FlushQuarantine(th)
	if got := a.Inner().Stats().LiveBytes; got != 0 {
		t.Fatalf("inner LiveBytes = %d after flush", got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestUsableSizeIsRequested(t *testing.T) {
	a := newDebug(-1)
	th := thread(a)
	p := a.Malloc(th, 100)
	if got := a.UsableSize(p); got != 100 {
		t.Fatalf("UsableSize = %d, want exactly 100", got)
	}
	mustPanic(t, "exceeds requested", func() { a.Bytes(p, 101) })
	a.Free(th, p)
}

func TestLiveBlocksLeakReport(t *testing.T) {
	a := newDebug(-1)
	th := thread(a)
	p1 := a.Malloc(th, 10)
	p2 := a.Malloc(th, 20)
	if got := a.LiveBlocks(); got != 2 {
		t.Fatalf("LiveBlocks = %d", got)
	}
	a.Free(th, p1)
	a.Free(th, p2)
	if got := a.LiveBlocks(); got != 0 {
		t.Fatalf("LiveBlocks = %d after frees", got)
	}
}

func TestMallocZero(t *testing.T) {
	a := newDebug(-1)
	th := thread(a)
	p := a.Malloc(th, 0)
	if p.IsNil() {
		t.Fatal("Malloc(0) nil")
	}
	a.Free(th, p)
}

// TestMallocAlignedGuards: an aligned block keeps both guards around its
// aligned address, an overrun past it is caught, and the free, immediate
// or out of quarantine, returns the inner block the padding came from.
func TestMallocAlignedGuards(t *testing.T) {
	for _, q := range []int{-1, 1} {
		a := newDebug(q)
		th := thread(a)
		for _, align := range []int{8, 16, 64, 4096, 1 << 16} {
			p := a.MallocAligned(th, 100, align)
			if uint64(p)%uint64(align) != 0 {
				t.Fatalf("quarantine %d: MallocAligned(100, %d) = %#x, misaligned", q, align, uint64(p))
			}
			clear(a.Bytes(p, 100))
			if err := a.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			a.Free(th, p)
		}
		a.FlushQuarantine(th)
		if got := a.Inner().Stats().LiveBytes; got != 0 {
			t.Fatalf("quarantine %d: inner LiveBytes = %d after freeing every aligned block", q, got)
		}
		p := a.MallocAligned(th, 100, 64)
		a.Inner().Space().Bytes(uint64(p), 101)[100] = 0
		mustPanic(t, "rear canary smashed", func() { a.Free(th, p) })
	}
	mustPanic(t, "not a power of two", func() { newDebug(-1).MallocAligned(nil, 16, 24) })
}
