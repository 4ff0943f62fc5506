//go:build linux && (amd64 || arm64)

package vm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Default arena geometry. Virtual-only: nothing is committed until reserved,
// so the cost of a big reservation is a few MiB of index tables, not memory.
const (
	// DefaultArenaSpanSize is the slot size of the superblock region — the
	// paper's S = 8 KiB.
	DefaultArenaSpanSize = 8192
	// DefaultSlotRegionBytes is the virtual size of the superblock slot
	// region (1 GiB = 131072 default-size superblocks).
	DefaultSlotRegionBytes = 1 << 30
	// DefaultLargeRegionBytes is the virtual size of the large-object
	// region.
	DefaultLargeRegionBytes = 512 << 20
	// DefaultGrowBytes is the virtual size of each extension mapping added
	// when the initial reservation runs out.
	DefaultGrowBytes = 64 << 20
)

// Arena is the real-memory Backend: one large mmap'd virtual reservation,
// split into a slot region of SpanSize superblock slots and a large region
// for variable-size spans.
//
// The reservation is mapped PROT_NONE with MAP_NORESERVE, so it consumes
// address space only. Reserve commits its span with mprotect(PROT_READ|
// PROT_WRITE) — physical pages arrive on first touch — and Span.Decommit
// issues a real madvise(MADV_DONTNEED), so pages ReleaseMemory releases
// genuinely leave the process RSS and read back as zeros if re-touched.
//
// Resolution is address arithmetic: a span address in the slot region
// resolves with one subtract, one shift, and one atomic slot load — no page
// table walk, and slot spans need no bounds re-check because a slot holds
// exactly one span. Addresses in the large region fall back to a flat
// page-indexed table (still a single load, just page- instead of
// slot-granular).
//
// Exhausting the initial reservation grows the arena rather than panicking:
// slot-region exhaustion degrades superblock reserves to the (slower,
// page-table-resolved) large path, and large-region exhaustion mmaps
// GrowBytes-sized extension regions. Extensions live in a copy-on-write
// slice consulted lock-free by Lookup, so the hot resolution paths pay one
// extra nil-check and nothing else until growth actually happens.
type Arena struct {
	counters

	mu sync.Mutex

	mem []byte // the raw reservation; unmapped by Close

	// Slots is the slot region, its start SpanSize-aligned, with one
	// span pointer per slot.
	Slots
	spanSize int
	nSlots   int

	largeBase uint64
	largeEnd  uint64

	largePages []atomic.Pointer[Span] // one per page of the large region

	nextSlot  int
	slotFree  []*Span // released slot spans, for reuse
	largeNext uint64
	largePool map[int][]*Span // released large spans by length

	growBytes int64
	// exts is the copy-on-write extension-region list: appended under mu,
	// read lock-free by Lookup.
	exts atomic.Pointer[[]*extRegion]

	closed bool
}

// extRegion is one extension mapping added after the initial reservation ran
// out: its own mmap, its own page-indexed span table, its own bump cursor.
type extRegion struct {
	mem   []byte
	base  uint64 // SpanSize-aligned usable start
	end   uint64
	next  uint64 // bump cursor; guarded by Arena.mu
	pages []atomic.Pointer[Span]
}

// NewArena maps the virtual reservation and returns the arena backend. It
// returns an error (never panics) if the platform refuses the mapping —
// callers degrade to the simulated backend.
func NewArena(opts ArenaOptions) (Backend, error) {
	o := opts
	if o.SpanSize == 0 {
		o.SpanSize = DefaultArenaSpanSize
	}
	if o.SlotRegionBytes == 0 {
		o.SlotRegionBytes = DefaultSlotRegionBytes
	}
	if o.LargeRegionBytes == 0 {
		o.LargeRegionBytes = DefaultLargeRegionBytes
	}
	if o.GrowBytes == 0 {
		o.GrowBytes = DefaultGrowBytes
	}
	if o.SpanSize < PageSize || o.SpanSize&(o.SpanSize-1) != 0 {
		return nil, fmt.Errorf("vm: arena span size %d must be a power of two ≥ %d", o.SpanSize, PageSize)
	}
	ss := int64(o.SpanSize)
	o.SlotRegionBytes = (o.SlotRegionBytes + ss - 1) / ss * ss
	o.LargeRegionBytes = (o.LargeRegionBytes + ss - 1) / ss * ss
	o.GrowBytes = (o.GrowBytes + ss - 1) / ss * ss
	total := o.SlotRegionBytes + o.LargeRegionBytes + ss // slack to align the base
	if total > 1<<46 {
		return nil, fmt.Errorf("vm: arena reservation %d bytes too large", total)
	}

	mem, err := syscall.Mmap(-1, 0, int(total),
		syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("vm: arena reservation of %d bytes: %w", total, err)
	}

	raw := uint64(uintptr(unsafe.Pointer(&mem[0])))
	base := (raw + uint64(ss) - 1) &^ (uint64(ss) - 1)
	a := &Arena{
		mem: mem,
		Slots: Slots{
			base:      base,
			slotLen:   uint64(o.SlotRegionBytes),
			spanShift: uint(bits.TrailingZeros64(uint64(o.SpanSize))),
		},
		spanSize:  o.SpanSize,
		nSlots:    int(o.SlotRegionBytes / ss),
		largeBase: base + uint64(o.SlotRegionBytes),
		largeEnd:  base + uint64(o.SlotRegionBytes) + uint64(o.LargeRegionBytes),
		largePool: make(map[int][]*Span),
		growBytes: o.GrowBytes,
	}
	a.slots = make([]atomic.Pointer[Span], a.nSlots)
	a.largePages = make([]atomic.Pointer[Span], o.LargeRegionBytes>>PageShift)
	a.largeNext = a.largeBase
	return a, nil
}

// Name identifies the arena backend.
func (a *Arena) Name() string { return "arena" }

// Reserve returns a committed span of size bytes aligned to align.
// Reservations of exactly the arena's span size land in the slot region and
// resolve by pure arithmetic; everything else goes to the large region.
// Exhausting either region grows the arena (slot reserves degrade to the
// large path; the large path maps extension regions) — Reserve only panics
// if the OS itself refuses more address space.
func (a *Arena) Reserve(size, align int, owner any) *Span {
	size, align = checkReserve(size, align)

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		panic("vm: Reserve on closed arena")
	}
	var sp *Span
	if size == a.spanSize && align <= a.spanSize {
		sp = a.reserveSlotLocked()
	} else {
		sp = a.reserveLargeLocked(size, align)
	}
	sp.Owner = owner
	a.publishLocked(sp)
	a.mu.Unlock()

	a.reserves.Add(1)
	a.addReserved(int64(size))
	a.addCommitted(int64(size))
	return sp
}

func (a *Arena) reserveSlotLocked() *Span {
	if n := len(a.slotFree); n > 0 {
		sp := a.slotFree[n-1]
		a.slotFree = a.slotFree[:n-1]
		a.recycled.Add(1)
		return sp
	}
	if a.nextSlot >= a.nSlots {
		// Slot region exhausted: degrade to the large path. The span still
		// works — it just resolves through a page table instead of slot
		// arithmetic, and recycles through largePool instead of slotFree.
		return a.reserveLargeLocked(a.spanSize, a.spanSize)
	}
	i := a.nextSlot
	a.nextSlot++
	base := a.base + uint64(i)<<a.spanShift
	return &Span{Base: base, Len: a.spanSize, data: a.commit(base, a.spanSize), host: a}
}

func (a *Arena) reserveLargeLocked(size, align int) *Span {
	list := a.largePool[size]
	for i, sp := range list {
		if sp.Base&(uint64(align)-1) == 0 {
			list[i] = list[len(list)-1]
			a.largePool[size] = list[:len(list)-1]
			a.recycled.Add(1)
			return sp
		}
	}
	if base, ok := carve(&a.largeNext, a.largeBase, a.largeEnd, size, align); ok {
		return &Span{Base: base, Len: size, data: a.commit(base, size), host: a}
	}
	// Primary large region exhausted: bump-allocate from existing extension
	// regions, newest first (older ones are likely full), then grow.
	exts := a.extList()
	for i := len(exts) - 1; i >= 0; i-- {
		r := exts[i]
		if base, ok := carve(&r.next, r.base, r.end, size, align); ok {
			return &Span{Base: base, Len: size, data: a.commit(base, size), host: a}
		}
	}
	r := a.growLocked(size, align)
	base, ok := carve(&r.next, r.base, r.end, size, align)
	if !ok {
		panic(fmt.Sprintf("vm: fresh %d-byte extension cannot fit %d bytes aligned to %d", r.end-r.base, size, align))
	}
	return &Span{Base: base, Len: size, data: a.commit(base, size), host: a}
}

// carve bump-allocates size bytes at alignment align from the cursor bounded
// by [lo, hi), advancing the cursor on success.
func carve(next *uint64, lo, hi uint64, size, align int) (uint64, bool) {
	base := (*next + uint64(align) - 1) &^ (uint64(align) - 1)
	if base < lo || base+uint64(size) > hi {
		return 0, false
	}
	*next = base + uint64(size)
	return base, true
}

// extList returns the current extension regions (possibly nil).
func (a *Arena) extList() []*extRegion {
	if p := a.exts.Load(); p != nil {
		return *p
	}
	return nil
}

// extFor resolves an address to its extension region lock-free, or nil.
func (a *Arena) extFor(addr uint64) *extRegion {
	for _, r := range a.extList() {
		if addr >= r.base && addr < r.end {
			return r
		}
	}
	return nil
}

// growLocked maps one more extension region — GrowBytes of virtual space, or
// enough for an over-sized request — and publishes it copy-on-write for the
// lock-free readers. Caller holds a.mu. Only a genuine mmap refusal (address
// space truly gone) still panics.
func (a *Arena) growLocked(size, align int) *extRegion {
	ss := int64(a.spanSize)
	want := int64(size) + int64(align)
	gb := a.growBytes
	if want > gb {
		gb = (want + ss - 1) / ss * ss
	}
	mem, err := syscall.Mmap(-1, 0, int(gb)+a.spanSize,
		syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("vm: arena growth of %d bytes: %v", gb, err))
	}
	raw := uint64(uintptr(unsafe.Pointer(&mem[0])))
	base := (raw + uint64(ss) - 1) &^ (uint64(ss) - 1)
	r := &extRegion{
		mem:   mem,
		base:  base,
		end:   base + uint64(gb),
		next:  base,
		pages: make([]atomic.Pointer[Span], gb>>PageShift),
	}
	list := append(append([]*extRegion(nil), a.extList()...), r)
	a.exts.Store(&list)
	a.grows.Add(1)
	return r
}

// seg returns the raw mapping bytes backing [base, base+n), resolving the
// primary reservation first and extension regions after it.
func (a *Arena) seg(base uint64, n int) []byte {
	if m := a.mem; m != nil {
		mb := uint64(uintptr(unsafe.Pointer(&m[0])))
		if base >= mb && base+uint64(n) <= mb+uint64(len(m)) {
			off := int(base - mb)
			return m[off : off+n : off+n]
		}
	}
	if r := a.extFor(base); r != nil && base+uint64(n) <= r.end {
		off := int(base - uint64(uintptr(unsafe.Pointer(&r.mem[0]))))
		return r.mem[off : off+n : off+n]
	}
	panic(fmt.Sprintf("vm: address range [%#x, +%d) outside arena mappings", base, n))
}

// commit makes [base, base+n) readable and writable. Physical pages arrive
// lazily on first touch; the committed counters are maintained by the
// caller.
func (a *Arena) commit(base uint64, n int) []byte {
	seg := a.seg(base, n)
	if err := syscall.Mprotect(seg, syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		panic(fmt.Sprintf("vm: mprotect(%#x, %d): %v", base, n, err))
	}
	return seg
}

// madvise returns the physical pages of [base, base+n) to the OS. The
// mapping stays intact and writable; the next touch faults in a zero page.
func (a *Arena) madvise(base uint64, n int) {
	if err := syscall.Madvise(a.seg(base, n), syscall.MADV_DONTNEED); err != nil {
		panic(fmt.Sprintf("vm: madvise(%#x, %d, DONTNEED): %v", base, n, err))
	}
}

// Release returns a span to the arena. Its physical pages go back to the OS
// immediately (madvise), its addresses stop resolving, and the span is
// pooled for reuse by the next Reserve of the same size.
func (a *Arena) Release(sp *Span) {
	if sp == nil {
		panic("vm: Release(nil)")
	}
	a.mu.Lock()
	a.unpublishLocked(sp)
	sp.Owner = nil
	backed := int64(sp.Len) - resetDecommitState(sp, &a.counters)
	a.madvise(sp.Base, sp.Len)
	if a.isSlot(sp.Base) {
		a.slotFree = append(a.slotFree, sp)
	} else {
		a.largePool[sp.Len] = append(a.largePool[sp.Len], sp)
	}
	a.mu.Unlock()

	a.releases.Add(1)
	a.reserved.Add(int64(-sp.Len))
	a.committed.Add(-backed)
}

func (a *Arena) isSlot(addr uint64) bool { return addr-a.base < a.slotLen }

// setPages stores v into every page-table entry covering sp. Spans never
// straddle region boundaries (each bump allocation is bounds-checked against
// its own region), so one region resolution covers the whole span.
func (a *Arena) setPages(sp *Span, v *Span) {
	if sp.Base >= a.largeBase && sp.Base < a.largeEnd {
		for addr := sp.Base; addr < sp.End(); addr += PageSize {
			a.largePages[(addr-a.largeBase)>>PageShift].Store(v)
		}
		return
	}
	r := a.extFor(sp.Base)
	if r == nil {
		panic(fmt.Sprintf("vm: span %#x outside arena regions", sp.Base))
	}
	for addr := sp.Base; addr < sp.End(); addr += PageSize {
		r.pages[(addr-r.base)>>PageShift].Store(v)
	}
}

func (a *Arena) publishLocked(sp *Span) {
	if a.isSlot(sp.Base) {
		a.slots[(sp.Base-a.base)>>a.spanShift].Store(sp)
		return
	}
	a.setPages(sp, sp)
}

func (a *Arena) unpublishLocked(sp *Span) {
	if a.isSlot(sp.Base) {
		a.slots[(sp.Base-a.base)>>a.spanShift].Store(nil)
		return
	}
	a.setPages(sp, nil)
}

// Lookup resolves addr to its live span by address arithmetic: in the slot
// region it is one subtract, one shift, and one atomic load, with no bounds
// re-check because a slot holds exactly one span of exactly the slot size.
// It is lock-free and safe for concurrent use.
func (a *Arena) Lookup(addr uint64) *Span {
	if off := addr - a.base; off < a.slotLen {
		return a.slots[off>>a.spanShift].Load()
	}
	if addr >= a.largeBase && addr < a.largeEnd {
		sp := a.largePages[(addr-a.largeBase)>>PageShift].Load()
		if sp == nil || addr < sp.Base || addr >= sp.End() {
			return nil
		}
		return sp
	}
	if r := a.extFor(addr); r != nil {
		sp := r.pages[(addr-r.base)>>PageShift].Load()
		if sp == nil || addr < sp.Base || addr >= sp.End() {
			return nil
		}
		return sp
	}
	return nil
}

// slotTable returns the slot table, for SlotsOf.
func (a *Arena) slotTable() Slots { return a.Slots }

// Bytes returns a view of n bytes of backing memory at addr, panicking if
// the range is not fully inside one live span.
func (a *Arena) Bytes(addr uint64, n int) []byte {
	return backendBytes(a, addr, n)
}

// Close unmaps the reservation. Every span obtained from the arena is
// invalid afterwards — Close must only run once the owning allocator is
// quiescent. It is idempotent.
func (a *Arena) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	mem := a.mem
	a.mem = nil
	a.slots, a.largePages = nil, nil
	a.slotFree, a.largePool = nil, nil
	err := syscall.Munmap(mem)
	for _, r := range a.extList() {
		if e := syscall.Munmap(r.mem); e != nil && err == nil {
			err = e
		}
	}
	a.exts.Store(nil)
	return err
}

// spanHost hooks: decommit is a real madvise; recommit is free because the
// kernel zero-fills on the next touch.

func (a *Arena) spanMu() *sync.Mutex { return &a.mu }
func (a *Arena) counts() *counters   { return &a.counters }

func (a *Arena) dropPages(sp *Span) { a.madvise(sp.Base, sp.Len) }
