// Package vm provides the operating-system memory interface the allocators
// run on: a Space, one address-space engine over one of two memories.
//
// Go's runtime owns real allocation, so this reproduction of Hoard manages
// an explicit address space instead of interposing on malloc. Allocators
// reserve page-aligned spans (the moral equivalent of mmap/sbrk), hand out
// addresses inside them, and look spans back up from raw addresses on free.
// A Space has a slot region of SpanSize-sized, SpanSize-aligned slots, in
// which a superblock's address resolves by arithmetic (Slots), and large
// regions for every other span, each with a bump cursor and a lazily built
// two-level page table. Exhausting the slot region sends superblock-sized
// spans to the large regions; exhausting those adds another large region.
//
// What differs between the backends is only the memory behind the
// addresses:
//
//   - the simulated memory (New, NewSim), the default: synthetic addresses
//     from 1 MiB up, and a Go byte slice behind each span, so blocks that
//     share a simulated cache line also share physical memory and every
//     platform behaves identically;
//   - real memory (NewArena, linux/amd64 and linux/arm64 only): each region
//     is an mmap'd PROT_NONE reservation, so span addresses are real
//     virtual addresses and dropped pages leave the process RSS.
//
// Every Space distinguishes reserved bytes (address space handed to the
// allocator) from committed bytes (pages currently backed), each with its
// own high-water mark. Reserve commits the whole span; Span.Decommit drops
// the backing of the whole span madvise(DONTNEED)-style while keeping the
// addresses reserved, and Recommit backs it again. Release drops the pages
// too, so a recycled span reads zeros on both memories. Peak committed is
// what the paper's fragmentation and blowup experiments measure; the
// reserved/committed gap is what ReleaseMemory returns to the OS.
package vm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the page size (4 KiB, as on the paper's
	// UltraSPARC/Solaris platform).
	PageSize = 1 << PageShift

	// l2Bits sizes a large region's two-level page table: a level-2 node
	// maps 2^l2Bits pages (2 MiB of address space) and is built when the
	// first span lands in it.
	l2Bits = 9
	l2Size = 1 << l2Bits

	// maxRegion bounds one region's virtual size.
	maxRegion = int64(1) << 46
)

// Span is a contiguous page-aligned region of a Space, backed by memory.
type Span struct {
	// Base is the first address of the span (synthetic on the simulated
	// memory, a real virtual address on the arena).
	Base uint64
	// Len is the usable length in bytes (a multiple of the page size).
	Len int
	// Owner is an arbitrary tag attached by the reserving allocator,
	// typically its superblock or large-object header. It is set before
	// the span becomes visible to Lookup and must not be mutated while
	// the span is live.
	Owner any

	data  []byte
	space *Space

	// decommitted is set while the span's pages are dropped. It is written
	// under the space's mutex and read lock-free by Bytes.
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
// through Bytes panics until Recommit. The simulated memory zeroes the
// dropped bytes; the arena issues a real madvise and the OS reclaims the
// pages. Either way the previous contents are genuinely gone.
// Decommitting a decommitted span is a no-op, but still counted.
func (sp *Span) Decommit() {
	s := sp.space
	s.mu.Lock()
	if !sp.decommitted.Load() {
		s.mem.drop(sp.data)
		sp.decommitted.Store(true)
		s.committed.Add(int64(-sp.Len))
		s.decommitted.Add(int64(sp.Len))
	}
	s.decommits.Add(1)
	s.mu.Unlock()
}

// Recommit restores the backing of a decommitted span, re-counting it as
// committed. The memory reads back as zeros, as from a real OS: Decommit
// already erased it. Recommitting a committed span is a no-op, but still
// counted.
func (sp *Span) Recommit() {
	s := sp.space
	s.mu.Lock()
	if sp.decommitted.Load() {
		sp.decommitted.Store(false)
		s.decommitted.Add(int64(-sp.Len))
		s.addCommitted(int64(sp.Len))
	}
	s.recommits.Add(1)
	s.mu.Unlock()
}

// Stats is a snapshot of a Space's accounting.
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
	// rather than fresh address space.
	Recycled int64
	// Decommits and Recommits count Span.Decommit and Span.Recommit calls.
	Decommits, Recommits int64
	// Grows counts the large regions added after the first one ran out,
	// on either memory.
	Grows int64
}

// Space is an address space: a slot region and a list of large regions over
// one memory. All methods are safe for concurrent use; Lookup and Bytes are
// lock-free.
type Space struct {
	// Slots is the slot region's table. Lookup tries it first, and an
	// allocator can copy it to resolve superblocks with no call.
	Slots
	counters

	mem       memory
	spanSize  int
	growBytes int64

	mu       sync.Mutex
	slotArea *region         // the slot region's memory and bump cursor
	pool     map[int][]*Span // released spans by length, for reuse
	closed   bool

	// large is the copy-on-write list of large regions: appended under mu,
	// read lock-free by Lookup.
	large atomic.Pointer[[]*region]
}

// region is one mapping of a Space's address space with its own bump
// cursor. A large region maps its spans through a two-level page table.
type region struct {
	base, end uint64
	mem       []byte // the mapping behind [base, end); nil on the simulated memory
	next      uint64 // bump cursor, guarded by Space.mu
	l1        []atomic.Pointer[l2node]
}

type l2node [l2Size]atomic.Pointer[Span]

// New returns a simulated Space with the default geometry.
func New() *Space {
	s, err := NewSim(ArenaOptions{})
	if err != nil {
		panic(err) // unreachable: the defaults are valid
	}
	return s
}

// NewSim returns a simulated Space with the geometry opts selects. It errors
// on an invalid SpanSize.
func NewSim(opts ArenaOptions) (Backend, error) {
	return newSpace(opts, &simMemory{next: simBase})
}

// NewArena returns a Space over real mmap'd memory. It returns an error
// (never panics) if the platform has no arena or refuses the mapping —
// callers degrade to the simulated memory.
func NewArena(opts ArenaOptions) (Backend, error) {
	mem, err := newMmapMemory()
	if err != nil {
		return nil, err
	}
	return newSpace(opts, mem)
}

func newSpace(o ArenaOptions, mem memory) (*Space, error) {
	o = o.withDefaults()
	if o.SpanSize < PageSize || o.SpanSize&(o.SpanSize-1) != 0 {
		return nil, fmt.Errorf("vm: span size %d must be a power of two ≥ %d", o.SpanSize, PageSize)
	}
	s := &Space{mem: mem, spanSize: o.SpanSize, pool: make(map[int][]*Span)}
	s.growBytes = s.roundUp(o.GrowBytes)
	slotArea, err := s.mapRegion(s.roundUp(o.SlotRegionBytes))
	if err != nil {
		return nil, err
	}
	large, err := s.mapLarge(s.roundUp(o.LargeRegionBytes))
	if err != nil {
		mem.close()
		return nil, err
	}
	s.slotArea = slotArea
	s.Slots = Slots{
		base:      slotArea.base,
		slotLen:   slotArea.end - slotArea.base,
		spanShift: uint(bits.TrailingZeros(uint(o.SpanSize))),
		slots:     make([]atomic.Pointer[Span], (slotArea.end-slotArea.base)/uint64(o.SpanSize)),
	}
	s.large.Store(&[]*region{large})
	return s, nil
}

// roundUp rounds n up to a multiple of the span size.
func (s *Space) roundUp(n int64) int64 {
	ss := int64(s.spanSize)
	return (n + ss - 1) / ss * ss
}

// mapRegion maps n bytes of SpanSize-aligned address space.
func (s *Space) mapRegion(n int64) (*region, error) {
	if n > maxRegion {
		return nil, fmt.Errorf("vm: region of %d bytes too large", n)
	}
	base, mem, err := s.mem.mapRegion(n, s.spanSize)
	if err != nil {
		return nil, err
	}
	return &region{base: base, end: base + uint64(n), mem: mem, next: base}, nil
}

// mapLarge maps a large region of n bytes with an empty page table.
func (s *Space) mapLarge(n int64) (*region, error) {
	r, err := s.mapRegion(n)
	if err != nil {
		return nil, err
	}
	r.l1 = make([]atomic.Pointer[l2node], (n>>PageShift+l2Size-1)>>l2Bits)
	return r, nil
}

// Name identifies the memory: "sim" or "arena".
func (s *Space) Name() string { return s.mem.name() }

// Reserve returns a new span of size bytes (rounded up to whole pages) whose
// base address is a multiple of align. align must be zero or a power of two;
// zero means page alignment. The span is fully committed. A span of exactly
// SpanSize bytes aligned to at most SpanSize lands in the slot region while
// it has room; every other span, and those past that, in a large region.
// The owner tag is attached before the span is published. Reserve panics if
// size is not positive, align is invalid, the Space is closed, or the OS
// refuses more address space.
func (s *Space) Reserve(size, align int, owner any) *Span {
	size, align = checkReserve(size, align)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("vm: Reserve after Close")
	}
	sp := s.reuseLocked(size, align)
	if sp == nil {
		sp = s.carveLocked(size, align)
	}
	sp.Owner = owner
	s.setLocked(sp, sp)
	s.mu.Unlock()

	s.reserves.Add(1)
	s.addReserved(int64(size))
	s.addCommitted(int64(size))
	return sp
}

// checkReserve validates and normalizes a Reserve request: size is rounded
// up to whole pages and align defaults to page alignment.
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

// reuseLocked pops a released span of exactly the given size whose base
// satisfies align, if one exists.
func (s *Space) reuseLocked(size, align int) *Span {
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

// carveLocked carves a fresh span: from the slot region when it is slot
// shaped and a slot is left, otherwise from the first large region with
// room, growing the space by a region when none has.
func (s *Space) carveLocked(size, align int) *Span {
	if size == s.spanSize && align <= s.spanSize {
		if sp := s.carve(s.slotArea, size, align); sp != nil {
			return sp
		}
	}
	for _, r := range *s.large.Load() {
		if sp := s.carve(r, size, align); sp != nil {
			return sp
		}
	}
	return s.carve(s.growLocked(size, align), size, align)
}

// carve bump-allocates a committed span from r, or returns nil if r has no
// room for it.
func (s *Space) carve(r *region, size, align int) *Span {
	base := (r.next + uint64(align) - 1) &^ (uint64(align) - 1)
	if base+uint64(size) > r.end {
		return nil
	}
	r.next = base + uint64(size)
	return &Span{Base: base, Len: size, data: s.mem.commit(r, base, size), space: s}
}

// growLocked adds a large region of GrowBytes, or one big enough for an
// over-sized request, and publishes it copy-on-write for the lock-free
// readers. Only the OS refusing the mapping panics.
func (s *Space) growLocked(size, align int) *region {
	n := max(s.growBytes, s.roundUp(int64(size)+int64(align)))
	r, err := s.mapLarge(n)
	if err != nil {
		panic(fmt.Sprintf("vm: growing by %d bytes: %v", n, err))
	}
	list := append(append([]*region(nil), *s.large.Load()...), r)
	s.large.Store(&list)
	s.grows.Add(1)
	return r
}

// largeRegion returns the large region containing addr, or nil.
func (s *Space) largeRegion(addr uint64) *region {
	for _, r := range *s.large.Load() {
		if addr-r.base < r.end-r.base {
			return r
		}
	}
	return nil
}

// setLocked points every table entry covering sp at v: its slot, or each
// of its pages in its large region's page table, building level-2 nodes as
// they are first needed. Spans never straddle regions.
func (s *Space) setLocked(sp, v *Span) {
	if off := sp.Base - s.Slots.base; off < s.slotLen {
		s.slots[off>>s.spanShift].Store(v)
		return
	}
	r := s.largeRegion(sp.Base)
	for pg := (sp.Base - r.base) >> PageShift; pg < (sp.End()-r.base)>>PageShift; pg++ {
		n := r.l1[pg>>l2Bits].Load()
		if n == nil {
			n = new(l2node)
			r.l1[pg>>l2Bits].Store(n)
		}
		n[pg&(l2Size-1)].Store(v)
	}
}

// Release returns a span to the Space. Its pages are dropped, its addresses
// stop resolving, and the span is pooled for reuse by the next Reserve of
// the same size. Releasing a decommitted span un-commits nothing: its bytes
// already left the committed count when Decommit dropped them.
func (s *Space) Release(sp *Span) {
	if sp == nil {
		panic("vm: Release(nil)")
	}
	s.mu.Lock()
	s.setLocked(sp, nil)
	sp.Owner = nil
	backed := int64(sp.Len)
	if sp.decommitted.Load() {
		sp.decommitted.Store(false)
		s.decommitted.Add(-backed)
		backed = 0
	} else {
		s.mem.drop(sp.data)
	}
	s.pool[sp.Len] = append(s.pool[sp.Len], sp)
	s.mu.Unlock()

	s.releases.Add(1)
	s.reserved.Add(int64(-sp.Len))
	s.committed.Add(-backed)
}

// Lookup returns the live span containing addr, or nil. A slot-region
// address resolves by arithmetic (Slots.Lookup); any other walks its large
// region's page table. It is lock-free and safe for concurrent use.
// Decommitted spans still resolve — their addresses are reserved; only
// their backing is gone.
func (s *Space) Lookup(addr uint64) *Span {
	if sp := s.Slots.Lookup(addr); sp != nil {
		return sp
	}
	r := s.largeRegion(addr)
	if r == nil {
		return nil
	}
	pg := (addr - r.base) >> PageShift
	if n := r.l1[pg>>l2Bits].Load(); n != nil {
		return n[pg&(l2Size-1)].Load()
	}
	return nil
}

// Bytes returns a view of n bytes of backing memory at addr. It panics if
// the range is not fully inside one live span or the span is decommitted,
// which always indicates an allocator bug or a use-after-free.
func (s *Space) Bytes(addr uint64, n int) []byte {
	sp := s.Lookup(addr)
	if sp == nil {
		panic(fmt.Sprintf("vm: Bytes(%#x, %d): no span at address", addr, n))
	}
	off := int(addr - sp.Base)
	if off+n > sp.Len {
		panic(fmt.Sprintf("vm: Bytes(%#x, %d): range escapes span [%#x,%#x)", addr, n, sp.Base, sp.End()))
	}
	return sp.Bytes(off, n)
}

// Close releases the Space's memory: the arena unmaps its regions. Every
// span obtained from the Space is invalid afterwards, so Close must only
// run once the owning allocator is quiescent, and Reserve panics. It is
// idempotent.
func (s *Space) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.mem.close()
}
