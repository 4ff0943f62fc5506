// Package debugalloc wraps any allocator with memory-debugging machinery
// in the tradition of Electric Fence and the debug modes of production
// mallocs:
//
//   - canaries: guard words before and after every user area, checked on
//     free and on demand — buffer overflows and underflows panic with the
//     offending address;
//   - poisoning: freed memory is filled with a poison pattern;
//   - quarantine: frees are delayed through a FIFO so the poison has time
//     to catch use-after-free writes, which are detected when the block
//     finally leaves quarantine (and by CheckIntegrity).
//
// The wrapper costs a lock and a map lookup per operation — it is a
// development tool, not a fast path — and is exposed on the public API as
// Config.Debug.
package debugalloc

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sync"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/vm"
)

const (
	// canarySize is the guard region on each side of the user area.
	canarySize = 8
	// canaryMagic seeds the guard pattern (xored with the address so
	// copies of one block's guards don't validate another's).
	canaryMagic = 0xDEADBEEFCAFEF00D
	// poisonByte fills freed user memory.
	poisonByte = 0xDD
	// DefaultQuarantine is the default number of delayed frees.
	DefaultQuarantine = 128
)

// Config tunes the wrapper.
type Config struct {
	// Quarantine is the FIFO length of delayed frees (0 selects
	// DefaultQuarantine; negative disables quarantine).
	Quarantine int
}

// Allocator is the debugging wrapper.
type Allocator struct {
	inner alloc.Allocator
	cfg   Config
	// acct tracks the application's view — requested (not canary-padded)
	// bytes, counted when the application mallocs and frees, not when
	// quarantine finally releases.
	acct alloc.Accounting

	mu         sync.Mutex
	live       map[alloc.Ptr]block // keyed by user ptr
	quarantine []quarItem
}

// block records an allocation: its requested size, and pad, the user
// pointer's offset into the inner block (front guard plus alignment).
type block struct {
	size, pad int
}

type quarItem struct {
	user alloc.Ptr
	block
	th *alloc.Thread
}

// New wraps inner.
func New(inner alloc.Allocator, cfg Config) *Allocator {
	switch {
	case cfg.Quarantine == 0:
		cfg.Quarantine = DefaultQuarantine
	case cfg.Quarantine < 0:
		cfg.Quarantine = 0
	}
	return &Allocator{inner: inner, cfg: cfg, live: make(map[alloc.Ptr]block)}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.inner.Name() + "+debug" }

// Space implements alloc.Allocator.
func (a *Allocator) Space() vm.Backend { return a.inner.Space() }

// Inner returns the wrapped allocator.
func (a *Allocator) Inner() alloc.Allocator { return a.inner }

// NewThread implements alloc.Allocator.
func (a *Allocator) NewThread(e env.Env) *alloc.Thread {
	return a.inner.NewThread(e)
}

func canaryAt(addr uint64) uint64 { return canaryMagic ^ addr }

func (a *Allocator) writeCanary(addr uint64) {
	binary.LittleEndian.PutUint64(a.inner.Space().Bytes(addr, canarySize), canaryAt(addr))
}

func (a *Allocator) checkCanary(addr uint64, what string, user alloc.Ptr) {
	got := binary.LittleEndian.Uint64(a.inner.Space().Bytes(addr, canarySize))
	if got != canaryAt(addr) {
		panic(fmt.Sprintf("debugalloc: %s canary smashed on block %#x (at %#x: got %#x)",
			what, uint64(user), addr, got))
	}
}

// Malloc implements alloc.Allocator: the inner block is size + two guard
// words; the returned pointer points past the front guard.
func (a *Allocator) Malloc(t *alloc.Thread, size int) alloc.Ptr {
	return a.MallocAligned(t, size, canarySize)
}

// MallocAligned is Malloc with the returned pointer a multiple of align, a
// power of two. The inner block, 8-byte aligned on every allocator, is
// padded by align-8 bytes, and the front guard sits just before the first
// aligned address past its start.
func (a *Allocator) MallocAligned(t *alloc.Thread, size, align int) alloc.Ptr {
	if size < 0 {
		panic(fmt.Sprintf("debugalloc: Malloc(%d)", size))
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("debugalloc: MallocAligned align %d not a power of two", align))
	}
	align = max(align, canarySize)
	raw := a.inner.Malloc(t, size+canarySize+align)
	user := (raw + canarySize + alloc.Ptr(align-1)) &^ alloc.Ptr(align-1)
	a.writeCanary(uint64(user) - canarySize)
	a.writeCanary(uint64(user) + uint64(size))
	a.mu.Lock()
	a.live[user] = block{size: size, pad: int(user - raw)}
	a.mu.Unlock()
	a.acct.OnMalloc(size)
	return user
}

// Free implements alloc.Allocator: verify guards, poison, quarantine.
func (a *Allocator) Free(t *alloc.Thread, p alloc.Ptr) {
	if p.IsNil() {
		return
	}
	a.mu.Lock()
	b, ok := a.live[p]
	if !ok {
		a.mu.Unlock()
		panic(fmt.Sprintf("debugalloc: free of unknown or already-freed pointer %#x", uint64(p)))
	}
	delete(a.live, p)
	a.mu.Unlock()

	a.acct.OnFree(b.size)

	a.checkCanary(uint64(p)-canarySize, "front", p)
	a.checkCanary(uint64(p)+uint64(b.size), "rear", p)
	poison(a.inner.Space().Bytes(uint64(p), b.size))

	if a.cfg.Quarantine == 0 {
		a.inner.Free(t, p-alloc.Ptr(b.pad))
		return
	}
	a.mu.Lock()
	a.quarantine = append(a.quarantine, quarItem{user: p, block: b, th: t})
	var out *quarItem
	if len(a.quarantine) > a.cfg.Quarantine {
		item := a.quarantine[0]
		a.quarantine = a.quarantine[1:]
		out = &item
	}
	a.mu.Unlock()
	if out != nil {
		a.releaseFromQuarantine(t, *out)
	}
}

// releaseFromQuarantine verifies the poison survived, then really frees.
func (a *Allocator) releaseFromQuarantine(t *alloc.Thread, it quarItem) {
	checkPoison(a.inner.Space().Bytes(uint64(it.user), it.size), it.user)
	a.inner.Free(t, it.user-alloc.Ptr(it.pad))
}

// FlushThread implements alloc.ThreadFlusher: the quarantine's delayed
// frees complete (poison-checked) and the flush propagates to the inner
// allocator's per-thread state (Hoard's magazines, when layered over
// Hoard). The quarantine is allocator-global rather than per-thread, so
// flushing any one thread drains all of it — acceptable at thread exit,
// where the goal is that no retired thread strands memory.
func (a *Allocator) FlushThread(t *alloc.Thread) {
	a.FlushQuarantine(t)
	alloc.FlushThread(a.inner, t)
}

// FlushQuarantine releases every delayed free (poison-checked). Call at
// teardown so the inner allocator's accounting reaches zero.
func (a *Allocator) FlushQuarantine(t *alloc.Thread) {
	a.mu.Lock()
	q := a.quarantine
	a.quarantine = nil
	a.mu.Unlock()
	for _, it := range q {
		a.releaseFromQuarantine(t, it)
	}
}

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

func checkPoison(b []byte, user alloc.Ptr) {
	for i, v := range b {
		if v != poisonByte {
			panic(fmt.Sprintf("debugalloc: use-after-free write on block %#x (offset %d: %#x)",
				uint64(user), i, v))
		}
	}
}

// UsableSize implements alloc.Allocator: exactly the requested size — the
// guards make any excess out of bounds.
func (a *Allocator) UsableSize(p alloc.Ptr) int {
	a.mu.Lock()
	b, ok := a.live[p]
	a.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("debugalloc: UsableSize of unknown pointer %#x", uint64(p)))
	}
	return b.size
}

// Bytes implements alloc.Allocator, bounded by the requested size.
func (a *Allocator) Bytes(p alloc.Ptr, n int) []byte {
	if n > a.UsableSize(p) {
		panic(fmt.Sprintf("debugalloc: Bytes(%#x, %d) exceeds requested size", uint64(p), n))
	}
	return a.inner.Space().Bytes(uint64(p), n)
}

// Stats implements alloc.Allocator, reporting application-level operation
// counts and requested-byte gauges (quarantined blocks are dead to the
// application, canary padding is invisible) over the inner allocator's
// mechanism counters.
func (a *Allocator) Stats() alloc.Stats {
	var st alloc.Stats
	a.acct.Fill(&st)
	alloc.MergeAllocatorCounters(&st, a.inner.Stats())
	return st
}

// SampleStats implements alloc.StatsSampler: Stats over the inner
// allocator's under-load view. The application's books here are atomic, so
// only the inner counters can trail.
func (a *Allocator) SampleStats() alloc.Stats {
	var st alloc.Stats
	a.acct.Fill(&st)
	alloc.MergeAllocatorCounters(&st, alloc.SampleStats(a.inner))
	return st
}

// LiveBlocks returns the current allocation count — a leak report
// primitive.
func (a *Allocator) LiveBlocks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.live)
}

// CheckIntegrity implements alloc.Allocator: every live block's guards and
// every quarantined block's poison must be intact, and the inner allocator
// must pass its own check.
func (a *Allocator) CheckIntegrity() error {
	a.mu.Lock()
	live := maps.Clone(a.live)
	q := append([]quarItem(nil), a.quarantine...)
	a.mu.Unlock()

	for p, b := range live {
		front := binary.LittleEndian.Uint64(a.inner.Space().Bytes(uint64(p)-canarySize, canarySize))
		if front != canaryAt(uint64(p)-canarySize) {
			return fmt.Errorf("debugalloc: front canary smashed on %#x", uint64(p))
		}
		rear := binary.LittleEndian.Uint64(a.inner.Space().Bytes(uint64(p)+uint64(b.size), canarySize))
		if rear != canaryAt(uint64(p)+uint64(b.size)) {
			return fmt.Errorf("debugalloc: rear canary smashed on %#x", uint64(p))
		}
	}
	for _, it := range q {
		for i, v := range a.inner.Space().Bytes(uint64(it.user), it.size) {
			if v != poisonByte {
				return fmt.Errorf("debugalloc: use-after-free write on quarantined %#x (offset %d)", uint64(it.user), i)
			}
		}
	}
	return a.inner.CheckIntegrity()
}
