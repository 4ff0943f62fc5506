// Package vm provides the operating-system memory interface the allocators
// run on, behind the Backend abstraction.
//
// The default implementation is a simulated OS: Go's runtime owns real
// allocation, so this reproduction of Hoard manages an explicit, simulated
// 48-bit address space instead of interposing on malloc. Allocators reserve
// page-aligned spans (the moral equivalent of mmap/sbrk), hand out addresses
// inside them, and look spans back up from raw addresses on free — exactly
// the page-map technique production allocators use. Every span is backed by
// a real Go byte slab, so the memory handed out is genuinely readable and
// writable and blocks that share a simulated cache line also share physical
// memory.
//
// The second implementation (arena.go, Linux only) swaps the simulated
// space for one large mmap'd virtual reservation: span addresses become real
// virtual addresses, resolution becomes address arithmetic, and decommit
// becomes a real madvise(MADV_DONTNEED). See Backend.
//
// Every backend distinguishes reserved bytes (address space handed to the
// allocator) from committed bytes (pages currently backed), each with its
// own high-water mark. Reserve commits the whole span; Span.Decommit drops
// the backing of the whole span madvise(DONTNEED)-style while keeping the
// addresses reserved, and Recommit backs it again. Peak committed is what
// the paper's fragmentation and blowup experiments measure; the
// reserved/committed gap is what ReleaseMemory returns to the OS.
package vm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	// PageShift is log2 of the page size of the simulated OS.
	PageShift = 12
	// PageSize is the page size of the simulated OS (4 KiB, as on the
	// paper's UltraSPARC/Solaris platform).
	PageSize = 1 << PageShift

	// l1Bits and l2Bits size the two-level page table. Together with
	// PageShift they cover a 2^(11+14+12) = 128 GiB address space, far
	// beyond any experiment here.
	l1Bits = 11
	l2Bits = 14

	l1Size = 1 << l1Bits
	l2Size = 1 << l2Bits

	// baseAddr is the first address ever handed out. Zero is reserved so
	// that 0 can serve as the allocator's nil.
	baseAddr = 1 << 20

	maxAddr = 1 << (l1Bits + l2Bits + PageShift)
)

// Span is a contiguous page-aligned region of a backend's address space,
// backed by real memory.
type Span struct {
	// Base is the first address of the span (simulated for the sim
	// backend, a real virtual address for the arena).
	Base uint64
	// Len is the usable length in bytes (a multiple of the page size).
	Len int
	// Owner is an arbitrary tag attached by the reserving allocator,
	// typically its superblock or large-object header. It is set before
	// the span becomes visible to Lookup and must not be mutated while
	// the span is live.
	Owner any

	data []byte
	host spanHost

	// decommitted is set while the span's pages are dropped. It is written
	// under the host's mutex and read lock-free by Bytes.
	decommitted atomic.Bool
}

// Bytes returns a view of n bytes of the span's backing memory starting at
// byte offset off. It panics if the range is out of bounds or the span is
// decommitted — touching decommitted memory is always an allocator bug.
func (sp *Span) Bytes(off, n int) []byte {
	if sp.decommitted.Load() {
		sp.decommittedAccess(off, n)
	}
	return sp.data[off : off+n : off+n]
}

// decommittedAccess panics for an access to the decommitted span. It is
// kept out of line so Bytes stays small; its committed path makes no call.
//
//go:noinline
func (sp *Span) decommittedAccess(off, n int) {
	panic(fmt.Sprintf("vm: access to decommitted span %#x (Bytes(%d, %d))", sp.Base, off, n))
}

// Data returns the span's entire backing memory. It panics if the span is
// decommitted.
func (sp *Span) Data() []byte { return sp.Bytes(0, sp.Len) }

// End returns the address one past the last byte of the span.
func (sp *Span) End() uint64 { return sp.Base + uint64(sp.Len) }

// Decommitted reports whether the span's pages are currently dropped.
func (sp *Span) Decommitted() bool { return sp.decommitted.Load() }

// Decommit drops the backing of the whole span, in the style of
// madvise(MADV_DONTNEED): the addresses stay reserved and Lookup still
// resolves them, but the span stops counting as committed and any access
// through Bytes panics until Recommit. On the simulated backend the dropped
// memory is zeroed; on the arena it is a real madvise and the OS reclaims
// the pages. Either way the previous contents are genuinely gone.
// Decommitting a decommitted span is a no-op, but still counted.
func (sp *Span) Decommit() {
	h := sp.host
	mu := h.spanMu()
	mu.Lock()
	c := h.counts()
	if !sp.decommitted.Load() {
		h.dropPages(sp)
		sp.decommitted.Store(true)
		c.committed.Add(int64(-sp.Len))
		c.decommitted.Add(int64(sp.Len))
	}
	c.decommits.Add(1)
	mu.Unlock()
}

// Recommit restores the backing of a decommitted span, re-counting it as
// committed. The memory reads back as zeros, as from a real OS: Decommit
// already erased it. Recommitting a committed span is a no-op, but still
// counted.
func (sp *Span) Recommit() {
	h := sp.host
	mu := h.spanMu()
	mu.Lock()
	c := h.counts()
	if sp.decommitted.Load() {
		sp.decommitted.Store(false)
		c.decommitted.Add(int64(-sp.Len))
		c.addCommitted(int64(sp.Len))
	}
	c.recommits.Add(1)
	mu.Unlock()
}

// Stats is a snapshot of a backend's accounting.
type Stats struct {
	// Reserved is the number of address-space bytes currently handed out
	// (live spans, committed or not); PeakReserved is its high-water mark.
	Reserved, PeakReserved int64
	// Committed is the number of bytes currently backed by memory.
	Committed int64
	// PeakCommitted is the high-water mark of Committed. This is the "max
	// heap" measurement used by the paper's fragmentation table.
	PeakCommitted int64
	// DecommittedBytes is the reserved-but-unbacked byte total, i.e.
	// Reserved - Committed contributed by Decommit.
	DecommittedBytes int64
	// Reserves and Releases count Reserve and Release calls.
	Reserves, Releases int64
	// Recycled counts Reserve calls satisfied from the recycle pool
	// rather than fresh backing memory.
	Recycled int64
	// Decommits and Recommits count Span.Decommit and Span.Recommit calls.
	Decommits, Recommits int64
	// Grows counts extension mappings added after the initial reservation
	// was exhausted. Always zero on the simulated backend, whose address
	// space is unbounded.
	Grows int64
}

// Space is the simulated OS address space, the default Backend. All methods
// are safe for concurrent use; Lookup and Bytes are lock-free.
type Space struct {
	counters

	mu   sync.Mutex
	next uint64
	pool map[int][]*Span // released spans by length, for reuse

	l1 [l1Size]atomic.Pointer[l2node]
}

type l2node [l2Size]atomic.Pointer[Span]

// New returns an empty simulated Space.
func New() *Space {
	return &Space{next: baseAddr, pool: make(map[int][]*Span)}
}

// Name identifies the simulated backend.
func (s *Space) Name() string { return "sim" }

// Close is a no-op: the simulated space is ordinary Go memory.
func (s *Space) Close() error { return nil }

// Reserve returns a new span of size bytes (rounded up to whole pages) whose
// base address is a multiple of align. align must be zero or a power of two;
// zero means page alignment. The span is fully committed. The owner tag is
// attached before the span is published. Reserve panics if size is not
// positive or align is invalid.
func (s *Space) Reserve(size, align int, owner any) *Span {
	size, align = checkReserve(size, align)

	s.mu.Lock()
	sp := s.takeFromPoolLocked(size, align)
	if sp == nil {
		base := (s.next + uint64(align) - 1) &^ (uint64(align) - 1)
		if base+uint64(size) > maxAddr {
			s.mu.Unlock()
			panic("vm: simulated address space exhausted")
		}
		s.next = base + uint64(size)
		sp = &Span{Base: base, Len: size, data: make([]byte, size), host: s}
	}
	sp.Owner = owner
	s.publishLocked(sp)
	s.mu.Unlock()

	s.reserves.Add(1)
	s.addReserved(int64(size))
	s.addCommitted(int64(size))
	return sp
}

// checkReserve validates and normalizes a Reserve request, shared by every
// backend: size is rounded up to whole pages and align defaults to page
// alignment.
func checkReserve(size, align int) (int, int) {
	if size <= 0 {
		panic(fmt.Sprintf("vm: Reserve size %d", size))
	}
	if align == 0 {
		align = PageSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("vm: Reserve align %d not a power of two", align))
	}
	if align < PageSize {
		align = PageSize
	}
	return (size + PageSize - 1) &^ (PageSize - 1), align
}

// takeFromPoolLocked pops a recycled span of exactly the given size whose
// base satisfies align, if one exists.
func (s *Space) takeFromPoolLocked(size, align int) *Span {
	list := s.pool[size]
	for i, sp := range list {
		if sp.Base&(uint64(align)-1) == 0 {
			list[i] = list[len(list)-1]
			s.pool[size] = list[:len(list)-1]
			s.recycled.Add(1)
			return sp
		}
	}
	return nil
}

// Release returns a span to the simulated OS. The span's addresses become
// invalid: Lookup returns nil for them until the region is reserved again.
// Releasing a decommitted span un-commits nothing: its bytes already left
// the committed count when Decommit dropped them.
func (s *Space) Release(sp *Span) {
	if sp == nil {
		panic("vm: Release(nil)")
	}
	s.mu.Lock()
	s.unpublishLocked(sp)
	sp.Owner = nil
	backed := int64(sp.Len) - resetDecommitState(sp, &s.counters)
	s.pool[sp.Len] = append(s.pool[sp.Len], sp)
	s.mu.Unlock()

	s.releases.Add(1)
	s.reserved.Add(int64(-sp.Len))
	s.committed.Add(-backed)
}

// resetDecommitState marks a released span committed so the pooled span
// comes back committed from its next Reserve, returning the byte total that
// was decommitted. Called with the host's mutex held.
func resetDecommitState(sp *Span, c *counters) int64 {
	if !sp.decommitted.Load() {
		return 0
	}
	sp.decommitted.Store(false)
	c.decommitted.Add(int64(-sp.Len))
	return int64(sp.Len)
}

func (s *Space) publishLocked(sp *Span) {
	for a := sp.Base; a < sp.End(); a += PageSize {
		s.node(a).pageSlot(a).Store(sp)
	}
}

func (s *Space) unpublishLocked(sp *Span) {
	for a := sp.Base; a < sp.End(); a += PageSize {
		s.node(a).pageSlot(a).Store(nil)
	}
}

// node returns the level-2 table covering addr, creating it if needed.
// Creation races are benign double-stores under s.mu; reads are lock-free.
func (s *Space) node(addr uint64) *l2node {
	i := addr >> (PageShift + l2Bits)
	n := s.l1[i].Load()
	if n == nil {
		n = new(l2node)
		if !s.l1[i].CompareAndSwap(nil, n) {
			n = s.l1[i].Load()
		}
	}
	return n
}

func (n *l2node) pageSlot(addr uint64) *atomic.Pointer[Span] {
	return &n[(addr>>PageShift)&(l2Size-1)]
}

// Lookup returns the span containing addr, or nil if addr is not part of any
// live span. It is lock-free and safe for concurrent use. Decommitted pages
// still resolve — their addresses are reserved; only their backing is gone.
func (s *Space) Lookup(addr uint64) *Span {
	if addr >= maxAddr {
		return nil
	}
	n := s.l1[addr>>(PageShift+l2Bits)].Load()
	if n == nil {
		return nil
	}
	sp := n.pageSlot(addr).Load()
	if sp == nil || addr < sp.Base || addr >= sp.End() {
		return nil
	}
	return sp
}

// Bytes returns a view of n bytes of backing memory at the simulated address
// addr. It panics if the range is not fully inside one live span or the
// span is decommitted, which always indicates an allocator bug or a
// use-after-free.
func (s *Space) Bytes(addr uint64, n int) []byte {
	return backendBytes(s, addr, n)
}

// backendBytes implements Backend.Bytes over any Lookup.
func backendBytes(b Backend, addr uint64, n int) []byte {
	sp := b.Lookup(addr)
	if sp == nil {
		panic(fmt.Sprintf("vm: Bytes(%#x, %d): no span at address", addr, n))
	}
	off := int(addr - sp.Base)
	if off+n > sp.Len {
		panic(fmt.Sprintf("vm: Bytes(%#x, %d): range escapes span [%#x,%#x)", addr, n, sp.Base, sp.End()))
	}
	return sp.Bytes(off, n)
}

// spanHost hooks: the simulated space drops a span's pages by zeroing
// them, so data genuinely does not survive a decommit/recommit cycle.

func (s *Space) spanMu() *sync.Mutex { return &s.mu }
func (s *Space) counts() *counters   { return &s.counters }

func (s *Space) dropPages(sp *Span) { clear(sp.data) }
