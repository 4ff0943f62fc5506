package vm

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Backend is the memory substrate an allocator runs on. Two implementations
// exist:
//
//   - *Space, the deterministic simulated address space (New). Spans are
//     Go-managed byte slices, decommit is accounting plus a zero fill,
//     and every platform behaves identically. This is the default and the
//     substrate for all deterministic experiments.
//   - *Arena (NewArena, linux/amd64 and linux/arm64 only), one large mmap'd
//     virtual reservation. Span addresses are real virtual addresses,
//     pointer→span resolution is address arithmetic on the reservation base,
//     and Decommit is a real madvise(MADV_DONTNEED), so footprint numbers
//     are measurable as process RSS.
//
// All methods are safe for concurrent use; Lookup and Bytes are lock-free on
// both implementations.
type Backend interface {
	// Name identifies the implementation: "sim" or "arena".
	Name() string

	// Reserve returns a new span of size bytes (rounded up to whole pages)
	// whose base address is a multiple of align (zero means page
	// alignment). The span is fully committed.
	Reserve(size, align int, owner any) *Span

	// Release returns a span to the backend. Its addresses become invalid
	// until the region is reserved again.
	Release(sp *Span)

	// Lookup returns the live span containing addr, or nil.
	Lookup(addr uint64) *Span

	// Bytes returns a view of n bytes of backing memory at addr, panicking
	// if the range is not fully inside one live span.
	Bytes(addr uint64, n int) []byte

	// Stats returns a snapshot of the backend's accounting.
	Stats() Stats

	// Reserved, Committed, and DecommittedBytes expose the current gauges
	// behind Stats, which also carries their peaks.
	Reserved() int64
	Committed() int64
	DecommittedBytes() int64

	// Close releases backend resources (the arena's virtual reservation).
	// The backend and every span obtained from it are invalid afterwards;
	// Close must only be called once the owning allocator is quiescent.
	// Closing the simulated backend is a no-op.
	Close() error
}

// Slots is a backend's superblock slot table: a region of equal,
// SpanSize-aligned slots, each holding at most one span of exactly the slot
// size. Lookup resolves an address in the region with one subtract, one
// shift and one atomic load, and no interface call. The arena has one; the
// zero Slots, which every other backend reports, resolves nothing.
type Slots struct {
	base      uint64 // start of the slot region
	slotLen   uint64 // byte length of the slot region
	spanShift uint   // log2 of the slot size
	slots     []atomic.Pointer[Span]
}

// Lookup returns the live span in addr's slot, or nil when addr lies outside
// the slot region or its slot is empty. A nil result settles nothing: the
// caller asks the backend's Lookup, which resolves every other span.
func (s *Slots) Lookup(addr uint64) *Span {
	if off := addr - s.base; off < s.slotLen {
		return s.slots[off>>s.spanShift].Load()
	}
	return nil
}

// SlotsOf returns b's slot table, or the zero Slots if b has none. The
// table stays valid until b is closed.
func SlotsOf(b Backend) Slots {
	if a, ok := b.(interface{ slotTable() Slots }); ok {
		return a.slotTable()
	}
	return Slots{}
}

// ErrArenaUnsupported is returned by NewArena on platforms without the
// mmap-based arena implementation (everything but linux/amd64 and
// linux/arm64).
var ErrArenaUnsupported = errors.New("vm: arena backend requires linux/amd64 or linux/arm64")

// ArenaOptions configures NewArena. The zero value selects the defaults.
type ArenaOptions struct {
	// SpanSize is the superblock size the slot region is carved into. It
	// must be a power of two and at least one page. Reserves of exactly
	// this size and alignment ≤ SpanSize resolve by pure address
	// arithmetic. Default 8192, the paper's S.
	SpanSize int
	// SlotRegionBytes is the virtual size of the superblock slot region.
	// Default 1 GiB; rounded up to a SpanSize multiple.
	SlotRegionBytes int64
	// LargeRegionBytes is the virtual size of the variable-size region
	// serving large objects. Default 512 MiB; rounded up to a SpanSize
	// multiple.
	LargeRegionBytes int64
	// GrowBytes is the virtual size of each extension mapping the arena
	// adds when its initial reservation is exhausted (exhaustion grows the
	// arena rather than panicking; see Stats.Grows). A single over-sized
	// Reserve gets an extension sized to fit it. Default 64 MiB; rounded up
	// to a SpanSize multiple.
	GrowBytes int64
}

// counters is the reserved/committed accounting shared by every backend.
// Embedding it provides the Stats and gauge accessor methods of the Backend
// interface.
type counters struct {
	reserved     atomic.Int64
	peakReserved atomic.Int64
	committed    atomic.Int64
	peak         atomic.Int64
	decommitted  atomic.Int64
	reserves     atomic.Int64
	releases     atomic.Int64
	recycled     atomic.Int64
	decommits    atomic.Int64
	recommits    atomic.Int64
	grows        atomic.Int64
}

// addCommitted adds delta committed bytes and maintains the high-water mark.
func (c *counters) addCommitted(delta int64) {
	v := c.committed.Add(delta)
	for {
		p := c.peak.Load()
		if v <= p || c.peak.CompareAndSwap(p, v) {
			break
		}
	}
}

// addReserved adds delta reserved bytes and maintains the high-water mark.
func (c *counters) addReserved(delta int64) {
	v := c.reserved.Add(delta)
	for {
		p := c.peakReserved.Load()
		if v <= p || c.peakReserved.CompareAndSwap(p, v) {
			break
		}
	}
}

// Stats returns a snapshot of the accounting.
func (c *counters) Stats() Stats {
	return Stats{
		Reserved:         c.reserved.Load(),
		PeakReserved:     c.peakReserved.Load(),
		Committed:        c.committed.Load(),
		PeakCommitted:    c.peak.Load(),
		DecommittedBytes: c.decommitted.Load(),
		Reserves:         c.reserves.Load(),
		Releases:         c.releases.Load(),
		Recycled:         c.recycled.Load(),
		Decommits:        c.decommits.Load(),
		Recommits:        c.recommits.Load(),
		Grows:            c.grows.Load(),
	}
}

// Reserved returns the number of address-space bytes currently reserved.
func (c *counters) Reserved() int64 { return c.reserved.Load() }

// Committed returns the number of bytes currently committed.
func (c *counters) Committed() int64 { return c.committed.Load() }

// DecommittedBytes returns the reserved-but-unbacked byte total.
func (c *counters) DecommittedBytes() int64 { return c.decommitted.Load() }

// spanHost is the backend-internal face a Span talks to: Span.Decommit's
// bookkeeping delegates the physical part, dropping the span's pages, here.
// All hook methods except counts are called with the host's span mutex
// held.
type spanHost interface {
	// spanMu returns the mutex guarding span decommit state.
	spanMu() *sync.Mutex
	// counts returns the backend's accounting block.
	counts() *counters
	// dropPages physically drops the pages of sp: a zero fill for the
	// simulated space, madvise(MADV_DONTNEED) for the arena. Recommit
	// needs no hook: either way the pages read back as zeros.
	dropPages(sp *Span)
}
